package graph

import (
	"errors"
	"math"
	"testing"
	"time"

	"bitflow/internal/exec"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// TestInferBatchBitIdentical pins the batched path to the sequential one
// on TinyVGG: for every batch size 1..max, including ragged final batches
// smaller than the grown lane pool, InferBatch(xs)[i] must equal
// Infer(xs[i]) bit for bit.
func TestInferBatchBitIdentical(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := TinyVGG(feat(), RandomWeights{Seed: 60}) // sequential reference
	if err != nil {
		t.Fatal(err)
	}
	const max = 8
	r := workload.NewRNG(99)
	for B := 1; B <= max; B++ {
		xs := make([]*tensor.Tensor, B)
		for b := range xs {
			xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
		}
		got, err := net.InferBatch(xs)
		if err != nil {
			t.Fatalf("B=%d: %v", B, err)
		}
		if len(got) != B {
			t.Fatalf("B=%d: got %d outputs", B, len(got))
		}
		for b := range xs {
			want := ref.Infer(xs[b])
			if len(got[b]) != len(want) {
				t.Fatalf("B=%d image %d: %d logits, want %d", B, b, len(got[b]), len(want))
			}
			for i := range want {
				if got[b][i] != want[i] {
					t.Fatalf("B=%d image %d logit %d: batched %v, sequential %v",
						B, b, i, got[b][i], want[i])
				}
			}
		}
	}
	if net.MaxBatch() != max {
		t.Fatalf("lane pool %d after batches up to %d", net.MaxBatch(), max)
	}
	// Ragged batch after the pool has grown to max: reuse a subset of lanes.
	xs := make([]*tensor.Tensor, 3)
	for b := range xs {
		xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
	}
	got, err := net.InferBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for b := range xs {
		want := ref.Infer(xs[b])
		for i := range want {
			if got[b][i] != want[i] {
				t.Fatalf("ragged image %d logit %d differs", b, i)
			}
		}
	}
	if net.MaxBatch() != max {
		t.Fatalf("ragged batch shrank lane pool to %d", net.MaxBatch())
	}
}

// TestInferBatchMixedPrecision covers the float-stem variant (FloatConv
// first layer), whose batched path runs the stem per lane.
func TestInferBatchMixedPrecision(t *testing.T) {
	build := func() *Network {
		net, err := NewBuilder("mixed", 8, 8, 3, feat()).
			FloatConv("fc1", 64, 3, 3, 1, 1).
			Conv3x3("c2", 64).
			Pool("p1", 2, 2, 2).
			Dense("d1", 5).
			Build(RandomWeights{Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	net, ref := build(), build()
	r := workload.NewRNG(7)
	xs := make([]*tensor.Tensor, 4)
	for b := range xs {
		xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
	}
	got, err := net.InferBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for b := range xs {
		want := ref.Infer(xs[b])
		for i := range want {
			if got[b][i] != want[i] {
				t.Fatalf("image %d logit %d differs", b, i)
			}
		}
	}
}

// TestInferBatchInputErrors checks that a bad item fails with a typed
// error naming its index and that no forward pass runs.
func TestInferBatchInputErrors(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	r := workload.NewRNG(5)
	good := func() *tensor.Tensor { return workload.RandTensor(r, net.InH, net.InW, net.InC) }

	if _, err := net.InferBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}

	bad := good()
	bad.Data[10] = float32(math.NaN())
	_, err = net.InferBatch([]*tensor.Tensor{good(), bad, good()})
	var bie *BatchInputError
	if !errors.As(err, &bie) {
		t.Fatalf("want *BatchInputError, got %v", err)
	}
	if bie.Index != 1 {
		t.Fatalf("bad item at index 1 reported as %d", bie.Index)
	}

	wrong := workload.RandTensor(r, net.InH+1, net.InW, net.InC)
	_, err = net.InferBatch([]*tensor.Tensor{wrong, good()})
	if !errors.As(err, &bie) || bie.Index != 0 {
		t.Fatalf("wrong-shape item not reported at index 0: %v", err)
	}
}

// TestInferBatchObserver pins the observer on the batched sweep: at B = 4
// it sees "input" and then the same (name, kind) sequence Infer reports.
func TestInferBatchObserver(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	type obs struct{ name, kind string }
	var seen []obs
	net.SetExec(exec.Serial().WithObserver(func(layer, kind string, d time.Duration) {
		seen = append(seen, obs{layer, kind})
	}))
	r := workload.NewRNG(9)
	net.Infer(workload.RandTensor(r, net.InH, net.InW, net.InC))
	serial := seen
	seen = nil
	xs := make([]*tensor.Tensor, 4)
	for b := range xs {
		xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
	}
	if _, err := net.InferBatch(xs); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || seen[0] != (obs{"input", "pack"}) {
		t.Fatalf("batched pass observed %v, want input first", seen)
	}
	if len(seen) != len(serial) {
		t.Fatalf("batched pass observed %v, Infer observed %v", seen, serial)
	}
	for i := range serial {
		if seen[i] != serial[i] {
			t.Fatalf("observation %d: batched %v, Infer %v", i, seen[i], serial[i])
		}
	}
}

// TestInferBatchAllocs pins the allocations of one B = 4 batched pass
// through a fused TinyVGG whose every conv and the hidden dense layer run
// compressed: the 4 logits slices and their wrapper, and per conv node
// the dispatch closure plus its per-worker gather, packed-pixel and
// accumulator scratch. The dense scratch is sized when the lanes are
// wired, so the dense layers allocate nothing.
func TestInferBatchAllocs(t *testing.T) {
	ws := dupWeights{
		RandomWeights: RandomWeights{Seed: 64},
		dup:           map[string]int{"conv1.2": 4, "conv2.1": 4, "fc1": 4},
	}
	net, err := TinyVGG(feat(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if net.Fusion().Pairs != 2 || net.CompressedLayers() != 4 {
		t.Fatalf("want 2 fused pairs and 4 compressed layers, got %d and %d", net.Fusion().Pairs, net.CompressedLayers())
	}
	net.SetExec(exec.Serial())
	r := workload.NewRNG(10)
	xs := make([]*tensor.Tensor, 4)
	for b := range xs {
		xs[b] = workload.RandTensor(r, net.InH, net.InW, net.InC)
	}
	if _, err := net.InferBatch(xs); err != nil { // grows the lanes
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := net.InferBatch(xs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per InferBatch(4): %v", allocs)
	if allocs > 17 {
		t.Errorf("InferBatch(4) allocates %v times per pass, want at most 17", allocs)
	}
}
