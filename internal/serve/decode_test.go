package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// fuzzWants are the model input lengths the differential checks run at:
// none, a few, and TinyVGG's 32×32×3.
var fuzzWants = []int{0, 3, 3072}

// checkDecodeMatchesJSON fails t unless decodeInfer and a plain
// json.Decoder agree on body: the same acceptance, the same error text,
// and bit-identical values.
func checkDecodeMatchesJSON(t *testing.T, body []byte, want int) {
	t.Helper()
	got, gotErr := decodeInfer(body, want)
	var ref InferRequest
	refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
	if (gotErr == nil) != (refErr == nil) || (gotErr != nil && gotErr.Error() != refErr.Error()) {
		t.Fatalf("want %d, body %q: error %v, encoding/json says %v", want, body, gotErr, refErr)
	}
	if len(got.Data) != len(ref.Data) {
		t.Fatalf("want %d, body %q: %d values, encoding/json gives %d", want, body, len(got.Data), len(ref.Data))
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(ref.Data[i]) {
			t.Fatalf("want %d, body %q: value %d is %v (%#08x), encoding/json gives %v (%#08x)", want, body, i,
				got.Data[i], math.Float32bits(got.Data[i]), ref.Data[i], math.Float32bits(ref.Data[i]))
		}
	}
}

// canonicalBody encodes n seeded values the way clients do.
func canonicalBody(n int, seed uint64) []byte {
	body, _ := json.Marshal(InferRequest{Data: workload.RandTensor(workload.NewRNG(seed), 1, 1, n).Data})
	return body
}

// TestDecodeMatchesJSON runs the differential check on bodies at and
// past TinyVGG's input length, which FuzzDecodeInfer keeps out of its
// corpus.
func TestDecodeMatchesJSON(t *testing.T) {
	for _, body := range [][]byte{canonicalBody(3, 1), canonicalBody(3072, 2), canonicalBody(3073, 3)} {
		for _, want := range fuzzWants {
			checkDecodeMatchesJSON(t, body, want)
		}
	}
}

// TestScanInferSubset pins which bodies take the fast path, so the
// differential checks are not passing only because everything falls back.
func TestScanInferSubset(t *testing.T) {
	fast := []string{
		string(canonicalBody(3, 4)),
		` { "data" : [ 1 , 2.5 , -3e2 ] } `,
		`{"data":[-0,0.0,1e-46]}`,
		`{"data":[]}`,
		`{"data":[1,2,3]}garbage`,
	}
	for _, s := range fast {
		if _, ok := scanInfer([]byte(s), 3); !ok {
			t.Errorf("%q fell back, want the fast path", s)
		}
	}
	if data, ok := scanInfer(canonicalBody(3072, 5), 3072); !ok || len(data) != 3072 || cap(data) != 3072 {
		t.Errorf("canonical 3072-value body: ok=%v len=%d cap=%d, want the fast path at exactly 3072", ok, len(data), cap(data))
	}
	fallback := []string{
		`{"data":[1,2,3,4]}`, // more than want
		`{"data":[3.5e38]}`,  // ParseFloat range error
		`{"Data":[1]}`, `{"data":[1],"data":[2]}`, `{"data":null}`, `{"data":[01]}`, `{"data":[NaN]}`,
		`{"data":[1,2`, ``, "\ufeff{\"data\":[1]}",
	}
	for _, s := range fallback {
		if _, ok := scanInfer([]byte(s), 3); ok {
			t.Errorf("%q took the fast path, want the encoding/json fallback", s)
		}
	}
}

// FuzzDecodeInfer holds the fast path to encoding/json as its oracle on
// arbitrary bodies. Its seeds are the canonical shape and the edges of
// the subset. A 3072-value seed would make every mutation and
// minimization decode 30 KB; TestDecodeMatchesJSON covers those bodies.
func FuzzDecodeInfer(f *testing.F) {
	f.Add(canonicalBody(3, 6))
	for _, s := range []string{
		` { "data" : [ 1 , 2.5 , -3e2 ] } `,
		"\t{\n\"data\"\r:\n[\t0.125\n,\r-7E-1 ,1e+2\t]\n}\n",
		`{"data":[]}`,
		`{"data":[-0]}`, `{"data":[0.0]}`, `{"data":[1e-46]}`,
		`{"data":[3.4028235e38]}`, `{"data":[3.5e38]}`, `{"data":[1e39]}`, `{"data":[-1e39]}`,
		`{"data":[01]}`, `{"data":[1.]}`, `{"data":[.5]}`, `{"data":[+1]}`, `{"data":[0x1p3]}`,
		`{"data":[1_0]}`, `{"data":[NaN]}`, `{"data":[Infinity]}`, `{"data":[-Infinity]}`,
		`{"data":[1e]}`, `{"data":[1e+]}`, `{"data":[-]}`, `{"data":[1,]}`, `{"data":[,1]}`, `{"data":[1 2]}`,
		`{"Data":[1,2,3]}`, `{"DATA":[1]}`, `{"d\u0061ta":[1,2]}`,
		`{"data":[1],"data":[2,3]}`, `{"data":[1,2,3],"extra":true}`, `{"extra":1,"data":[1,2,3]}`,
		`{"data":null}`, `{"data":[null]}`, `{"data":["1"]}`, `{"data":{}}`, `{}`, `[]`, `null`, `1`,
		`{"data":[1,2,3]}garbage`, `{"data":[1,2,3]} {"data":[4]}`, `{"data":[1,2,3]`, `{"data":[1,2`,
		`{"data":`, `{"data"`, `{`, ``, "   ", "\ufeff{\"data\":[1,2,3]}",
		`{"data":[1,2,3,4]}`, `{"data":[1.5e-45,1.4e-45,7e-46]}`, `{"data":[123456789012345678901234567890123456789]}`,
		`{"data":[0.1000000000000000055511151231257827021181583404541015625]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, want := range fuzzWants {
			checkDecodeMatchesJSON(t, body, want)
		}
	})
}

// BenchmarkDecodeInfer times decoding a 3072-value body on the fast path
// and, with the key spelled "Data", on the encoding/json fallback.
func BenchmarkDecodeInfer(b *testing.B) {
	body := canonicalBody(3072, 8)
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"fast", body},
		{"fallback", bytes.Replace(body, []byte(`"data"`), []byte(`"Data"`), 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := decodeInfer(bc.body, 3072)
				if err != nil || len(req.Data) != 3072 {
					b.Fatalf("decode: %d values, %v", len(req.Data), err)
				}
			}
		})
	}
}

// inferAllocBudget is the most heap allocations one unbatched /infer
// request on TinyVGG may make, from the handler's entry to its encoded
// response, the test's ResponseRecorder included. Measured at 28 with Go
// 1.24 on amd64; the budget leaves 4 for net/http and context internals
// that differ between toolchains. Decoding the body with encoding/json
// instead adds about 30, so a return to reflection decoding fails here.
const inferAllocBudget = 32

func TestInferAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race, so the count is not fixed")
	}
	net, err := graph.TinyVGG(sched.Detect(), graph.RandomWeights{Seed: 171})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(net, Config{Replicas: 1, Exec: exec.Serial()})
	h := s.Handler()
	body := canonicalBody(32*32*3, 172)
	br := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/infer", io.NopCloser(br))
	req.Header.Set("Content-Type", "application/json")
	serve := func() {
		br.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	serve() // warm the body pool and the replica
	allocs := testing.AllocsPerRun(50, serve)
	t.Logf("allocations per /infer request: %v", allocs)
	if allocs > inferAllocBudget {
		t.Errorf("an /infer request allocates %v times, budget %d", allocs, inferAllocBudget)
	}
}
