package powerapi

import (
	"bytes"
	"testing"
)

// messageSeeds is the codec fuzz corpus: one envelope of every registered
// kind plus assorted malformed frames.
func messageSeeds(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, msg := range sampleMessages() {
		data, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	for _, msg := range sampleMessages()[:3] {
		data, err := MarshalRound(msg, 77)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	out = append(out, []byte(`{"v":1,"kind":"drain","body":{}}`))
	out = append(out, []byte(`{"v":2,"kind":"drain","body":{"on":true}}`))
	out = append(out, []byte(`{"v":1,"kind":"bogus","body":{}}`))
	out = append(out, []byte(`{"v":1,"kind":"status","body":{"node":"n","apps":[]}}`))
	out = append(out, []byte(`{"v":1,"kind":"drain","body":{"on":true},"round":12345}`))
	out = append(out, []byte(`{"v":1,"kind":"status","body":{"node":"n","epoch":3,"rev":2,"metrics":{"x":1}},"round":9}`))
	out = append(out, []byte(`{"v":1,"kind":"status","body":{"node":"row0","epoch":7,"rev":12,"base":11,"power_watts":38.5,"iterations":18,"clear":["lease"],"tier":{"tier":"row","children":8,"nodes":64,"depth":1,"budget_watts":400}}}`))
	out = append(out, []byte(`{"v":1,"kind":"status","body":{"node":"n","clear":[],"apps":[],"metrics":{}}}`))
	out = append(out, []byte(`{"v":1,"kind":"status","body":{"node":"n","metrics_rev":3}}`))
	out = append(out, []byte(`{"v":1,"kind":"drain","body":{"on":true},"future_field":{"deep":[1,2]}}`))
	out = append(out, []byte(`{"v":1,"kind":"heartbeat","body":{"node":"n"},"round":-1}`))
	out = append(out, []byte(`{`))
	out = append(out, []byte(``))
	out = append(out, []byte(`[1,2,3]`))
	return out
}

// FuzzUnmarshalMessage hammers the wire codec: any input must either be
// rejected with an error or decode into a message that survives a
// Marshal/Unmarshal round trip unchanged. Seeded with one envelope of
// every registered kind plus assorted malformed frames.
func FuzzUnmarshalMessage(f *testing.F) {
	for _, data := range messageSeeds(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, msg, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		kind := env.Kind
		if _, ok := kinds[kind]; !ok {
			t.Fatalf("decoded unregistered kind %q", kind)
		}
		re, err := MarshalRound(msg, env.Round)
		if err != nil {
			t.Fatalf("decoded %s does not re-marshal: %v", kind, err)
		}
		env2, msg2, err := UnmarshalEnvelope(re)
		if err != nil {
			t.Fatalf("re-marshaled %s does not decode: %v", kind, err)
		}
		if env2.Kind != kind {
			t.Fatalf("kind changed across round trip: %s -> %s", kind, env2.Kind)
		}
		if env2.Round != env.Round {
			t.Fatalf("round changed across round trip: %d -> %d", env.Round, env2.Round)
		}
		// One Marshal canonicalises (omitempty may drop empty fields);
		// after that, the bytes must be a fixed point.
		re2, err := MarshalRound(msg2, env2.Round)
		if err != nil {
			t.Fatalf("second marshal of %s: %v", kind, err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("%s not stable across round trip:\n first %s\nsecond %s", kind, re, re2)
		}
	})
}
