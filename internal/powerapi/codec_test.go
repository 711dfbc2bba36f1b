package powerapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// checkStatusDecoder holds decodeStatus to its specification on one input:
// it either declines or agrees with the generic decoder on envelope,
// message and error-freeness. It returns what the generic decoder made of
// data and whether the hand-written one took it.
func checkStatusDecoder(t *testing.T, data []byte) (genv Envelope, gmsg any, fast bool) {
	t.Helper()
	genv, gmsg, gerr := unmarshalGeneric(data)
	st, body, round, fast := decodeStatus(data)
	if fast {
		if gerr != nil {
			t.Fatalf("decoder took a frame the generic decoder refuses (%v):\n%s", gerr, data)
		}
		env := Envelope{V: Version, Kind: KindStatus, Body: append(json.RawMessage(nil), body...), Round: round}
		if !reflect.DeepEqual(env, genv) || !reflect.DeepEqual(any(st), gmsg) {
			t.Fatalf("decoders disagree on\n%s\n hand %+v %+v\n json %+v %+v", data, env, st, genv, gmsg)
		}
	}
	env, msg, err := UnmarshalEnvelope(data)
	if (err == nil) != (gerr == nil) || !reflect.DeepEqual(env, genv) || !reflect.DeepEqual(msg, gmsg) {
		t.Fatalf("UnmarshalEnvelope left the specification on\n%s\n got %+v %+v %v\nwant %+v %+v %v", data, env, msg, err, genv, gmsg, gerr)
	}
	if gerr != nil {
		gmsg = nil
	}
	return genv, gmsg, fast
}

// checkStatusCodec is the differential check of the whole codec on one
// input: the decoder on the input, then — for every status it decodes
// to, at several rounds — the encoder, and the decoder again on what the
// encoder wrote. It reports whether the hand-written decoder took data.
func checkStatusCodec(t *testing.T, data []byte) bool {
	t.Helper()
	genv, gmsg, fast := checkStatusDecoder(t, data)
	if st, ok := gmsg.(*NodeStatus); ok {
		for _, r := range []uint64{0, genv.Round, 77, math.MaxUint64} {
			if enc := checkStatusEncoder(t, st, r); enc != nil {
				checkStatusDecoder(t, enc)
			}
		}
	}
	return fast
}

// checkStatusEncoder holds appendStatus to json.Marshal of the public
// types for one status and round; nil means the encoder declined.
func checkStatusEncoder(t *testing.T, st *NodeStatus, round uint64) []byte {
	t.Helper()
	var want []byte
	body, werr := json.Marshal(st)
	if werr == nil {
		want, werr = json.Marshal(Envelope{V: Version, Kind: KindStatus, Body: body, Round: round})
	}
	got, ok := appendStatus([]byte("kept"), st, round)
	if ok && (werr != nil || !bytes.Equal(got, append([]byte("kept"), want...))) {
		t.Fatalf("encoders disagree on %+v round %d (%v):\n hand %s\n json kept%s", st, round, werr, got, want)
	}
	pub, err := MarshalRound(st, round)
	if (err == nil) != (werr == nil) || !bytes.Equal(pub, want) {
		t.Fatalf("MarshalRound left the specification on %+v round %d:\n got %s %v\nwant %s %v", st, round, pub, err, want, werr)
	}
	if !ok {
		return nil
	}
	return got[len("kept"):]
}

// FuzzStatusCodec is the differential fuzz of the hand-written status
// codec, the generic encoding/json path as reference.
func FuzzStatusCodec(f *testing.F) {
	for _, data := range append(messageSeeds(f), statusFrameSeeds(f)...) {
		f.Add(data)
	}
	// A converged tier's delta: what a building reads from a row every round.
	f.Add([]byte(`{"v":1,"kind":"status","body":{"node":"row0","epoch":1759500000000000000,"rev":3,"base":2,"iterations":33,"lease":{"id":1,"coordinator":"building","limit_watts":3200,"ttl_ms":3600000,"remaining_ms":3599000}},"round":77}` + "\n"))
	f.Add([]byte(`{"v":1,"kind":"status","body":{"node":"n","node":"m"}}`))
	f.Add([]byte(`{"v":1,"kind":"status","body":{"node":"n","lease":{"id":1,"id":2}}}`))
	f.Add([]byte(`{"v":1,"kind":"status","body":{"node":"n","lease":null,"rev":01,"limit_watts":1e999}}`))
	f.Add([]byte(`{"v":1,"kind":"status","body":{"node":"a\u0062","policy":"é","iterations":1.0,"power_watts":-0}}`))
	f.Add([]byte(`{"v":1,"kind":"status","body":{"node":"n","power_watts":1e-9,"max_watts":1E+22} ,"round":1}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkStatusCodec(t, data) })
}

var (
	tableStrings = []string{"", "n0", "row17", "tier-building", "frequency-shares", "a b", `q"uote`, `back\slash`, "<lt>", "a&b", "naïve", "日本", "tab\t", "nul\x00", "del\x7f", "bad\xff"}
	tableUints   = []uint64{0, 1, 2, 77, 1 << 32, 1759500000000000000, math.MaxInt64, math.MaxUint64}
	tableInts    = []int64{0, 1, -1, 33, 3600000, math.MaxInt32, math.MinInt64, math.MaxInt64}
	tableFloats  = []float64{0, 1, -1, 38.5, 3200, 0.1, 1e-8, 1e-7, 1e-6, 0.999e-6, 1e20, 1e21, 1e22, -1e22, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 123456789.125, math.Copysign(0, -1), math.NaN(), math.Inf(1)}
)

// plainASCII reports whether the encoder writes s, and the decoder reads
// it, without encoding/json's help.
func plainASCII(s string) bool {
	for _, c := range []byte(s) {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// fillRandom sets v, of any type reachable from NodeStatus, to a value
// drawn from the tables. plain keeps to what the hand-written path takes:
// plain strings, and floats encoding/json writes. It is driven by the
// type, so a field added to the wire structs is filled — and then the
// encoder either writes it or the table test fails.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value, plain bool) {
	switch v.Kind() {
	case reflect.String:
		s := tableStrings[rng.Intn(len(tableStrings))]
		for plain && !plainASCII(s) {
			s = tableStrings[rng.Intn(len(tableStrings))]
		}
		v.SetString(s)
	case reflect.Uint64:
		v.SetUint(tableUints[rng.Intn(len(tableUints))])
	case reflect.Int, reflect.Int64:
		v.SetInt(tableInts[rng.Intn(len(tableInts))])
	case reflect.Float64:
		f := tableFloats[rng.Intn(len(tableFloats))]
		if rng.Intn(4) == 0 {
			f = math.Float64frombits(rng.Uint64())
		}
		for plain && (f != f || math.IsInf(f, 0) || f == 0 && math.Signbit(f)) {
			f = rng.NormFloat64() * 100
		}
		v.SetFloat(f)
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Pointer:
		if rng.Intn(2) == 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(t, rng, v.Elem(), plain)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, rng, v.Field(i), plain)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), rng.Intn(3), 3))
		for i := 0; i < v.Len(); i++ {
			fillRandom(t, rng, v.Index(i), plain)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for n := rng.Intn(3); n > 0; n-- {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillRandom(t, rng, k, plain)
			fillRandom(t, rng, e, plain)
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("no generator for %s: teach fillRandom, then the codec", v.Type())
	}
}

// TestStatusCodecTable drives the codec over a seeded table of frames
// filled off the wire types: every scalar at its extremes, strings that
// need escaping and strings that do not, every optional section present
// and absent. Three in four are built so the hand-written path must
// take them, and the test counts that it did — a decoder that declines
// everything, or an encoder that does, cannot pass silently.
func TestStatusCodecTable(t *testing.T) {
	frames := 100_000
	if testing.Short() {
		frames = 5_000
	}
	rng := rand.New(rand.NewSource(24))
	var encoded, decoded, plainFrames int
	for i := 0; i < frames; i++ {
		st, plain := new(NodeStatus), i%4 != 0
		fillRandom(t, rng, reflect.ValueOf(st).Elem(), plain)
		if plain {
			// The sections the hand-written path leaves to encoding/json.
			st.Apps, st.Energy, st.SLO, st.Metrics = nil, nil, nil, nil
			plainFrames++
		}
		round := tableUints[rng.Intn(len(tableUints))]
		enc := checkStatusEncoder(t, st, round)
		if enc == nil {
			if plain {
				t.Fatalf("encoder declined a plain frame: %+v", st)
			}
			continue
		}
		encoded++
		if rng.Intn(2) == 0 {
			enc = append(enc, '\n') // as an agent's reply ends
		}
		_, _, fast := checkStatusDecoder(t, enc)
		if plain && !fast {
			t.Fatalf("decoder declined a plain frame:\n%s", enc)
		}
		if fast {
			decoded++
		}
	}
	t.Logf("%d frames: the hand-written encoder wrote %d, the hand-written decoder read %d (%d built plain)", frames, encoded, decoded, plainFrames)
	if decoded < plainFrames || encoded < decoded {
		t.Fatalf("fast path too rare: %d encoded, %d decoded of %d plain frames", encoded, decoded, plainFrames)
	}
}

// TestStatusCodecDeclines pins, frame by frame, what the hand-written
// decoder must hand to encoding/json — and that it takes the frame each
// one was bent from.
func TestStatusCodecDeclines(t *testing.T) {
	mk := func(body, tail string) []byte { return []byte(statusHead + body + tail) }
	if !checkStatusCodec(t, mk(`{"node":"n","rev":3,"power_watts":1e-9,"lease":{"id":1,"limit_watts":2,"ttl_ms":3,"remaining_ms":4},"tier":{"children":1,"nodes":2,"depth":1}}`, `,"round":7}`+"\n")) {
		t.Fatal("decoder declined a frame the encoder writes")
	}
	for name, data := range map[string][]byte{
		"escape":            mk(`{"node":"a\u0062"}`, `}`),
		"non-ascii":         mk(`{"node":"é"}`, `}`),
		"duplicate key":     mk(`{"node":"n","node":"m"}`, `}`),
		"duplicate sub key": mk(`{"node":"n","lease":{"id":1,"id":2}}`, `}`),
		"duplicate section": mk(`{"node":"n","tier":{"children":1},"tier":{"nodes":1}}`, `}`),
		"unknown key":       mk(`{"node":"n","metrics_rev":3}`, `}`),
		"null":              mk(`{"node":"n","lease":null}`, `}`),
		"whitespace":        mk(`{"node":"n", "rev":3}`, `}`),
		"leading zero":      mk(`{"node":"n","rev":03}`, `}`),
		"float overflow":    mk(`{"node":"n","power_watts":1e999}`, `}`),
		"uint overflow":     mk(`{"node":"n","rev":18446744073709551616}`, `}`),
		"non-integer":       mk(`{"node":"n","iterations":1.0}`, `}`),
		"negative uint":     mk(`{"node":"n","rev":-1}`, `}`),
		"bare dot":          mk(`{"node":"n","power_watts":1.}`, `}`),
		"empty clear":       mk(`{"node":"n","clear":[]}`, `}`),
		"apps":              mk(`{"node":"n","apps":[{"name":"a","core":0}]}`, `}`),
		"metrics":           mk(`{"node":"n","metrics":{"x":1}}`, `}`),
		"envelope field":    mk(`{"node":"n"}`, `,"future":1}`),
		"round twice":       mk(`{"node":"n"}`, `,"round":1,"round":2}`),
		"two newlines":      mk(`{"node":"n"}`, "}\n\n"),
		"trailing comma":    mk(`{"node":"n",}`, `}`),
		"truncated":         mk(`{"node":"n"`, ``),
		"other kind":        []byte(`{"v":1,"kind":"drain","body":{"on":true}}`),
		"other version":     []byte(`{"v":2,"kind":"status","body":{"node":"n"}}`),
	} {
		if checkStatusCodec(t, data) {
			t.Errorf("%s: the hand-written decoder took\n%s", name, data)
		}
	}
}

// TestStatusCodecNoAlias: replies are encoded into and read out of pooled
// buffers that the next poll, of any node, reuses at once. Several
// pollers of several agents share the pool here, and every view must
// still be its own agent's status — a string or a body that aliased a
// buffer would read as another node's.
func TestStatusCodecNoAlias(t *testing.T) {
	const agents, polls = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < agents; i++ {
		name := fmt.Sprintf("node-%d-%s", i, string(bytes.Repeat([]byte{'a' + byte(i)}, 40)))
		a, be := newStubAgent(t, name, nil)
		srv := httptest.NewServer(a.Handler())
		t.Cleanup(srv.Close)
		c := NewClient(srv.URL)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fl StatusFollower
			var views []*NodeStatus
			for p := 1; p <= polls; p++ {
				be.set(float64(p), p)
				st, err := c.FollowStatus(WithRound(context.Background(), uint64(p)), &fl, false)
				if err != nil {
					t.Error(err)
					return
				}
				views = append(views, st)
			}
			for p, st := range views {
				if st.Node != name || st.Policy != "stub" || st.Iterations != p+1 || st.PowerWatts != float64(p+1) {
					t.Errorf("%s poll %d: view %+v", name, p+1, st)
					return
				}
			}
		}()
	}
	wg.Wait()
}
