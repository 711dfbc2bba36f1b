package svc

import (
	"strings"
	"testing"
)

// FuzzParseTrace hardens the arrival-trace parser: arbitrary input must
// never panic or exhaust memory, and every accepted trace must satisfy
// the replay invariants (non-negative, non-decreasing, bounded).
func FuzzParseTrace(f *testing.F) {
	f.Add("padtrace/1\n150ms\n0.2\n2.5s x3\n")
	f.Add("# nothing but comments\n\n")
	f.Add("0\n0\n1e3\n")
	f.Add("1s x4096\n")
	f.Add("banana\n")
	f.Add("9999999999h\n")
	f.Add("1s x-3\n-5\n")
	f.Fuzz(func(t *testing.T, in string) {
		arr, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(arr) > MaxTraceArrivals {
			t.Fatalf("accepted %d arrivals past the bound", len(arr))
		}
		for i, a := range arr {
			if a < 0 {
				t.Fatalf("accepted negative arrival %v at %d", a, i)
			}
			if i > 0 && a < arr[i-1] {
				t.Fatalf("accepted decreasing arrivals at %d: %v after %v", i, a, arr[i-1])
			}
		}
	})
}
