package graph

import (
	"sync"
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

func TestCloneMatchesOriginal(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	net.SetExec(exec.Threads(2))
	clone := net.Clone()
	x := workload.RandTensor(workload.NewRNG(51), 32, 32, 3)
	want := net.Infer(x)
	got := clone.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: clone %v original %v", i, got[i], want[i])
		}
	}
	// Weights are shared; the model-size accounting must agree.
	if net.ModelSize() != clone.ModelSize() {
		t.Error("clone reports different model size")
	}
	if clone.Exec() != net.Exec() {
		t.Error("clone did not inherit the execution context")
	}
}

func TestClonesRunConcurrently(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	inputs := make([]*tensor.Tensor, workers)
	expected := make([][]float32, workers)
	for i := range inputs {
		inputs[i] = workload.RandTensor(workload.NewRNG(uint64(53+i)), 32, 32, 3)
		expected[i] = net.Infer(inputs[i])
	}
	var wg sync.WaitGroup
	results := make([][]float32, workers)
	for i := 0; i < workers; i++ {
		clone := net.Clone()
		wg.Add(1)
		go func(i int, c *Network) {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				results[i] = c.Infer(inputs[i])
			}
		}(i, clone)
	}
	wg.Wait()
	for i := range results {
		for j := range results[i] {
			if results[i][j] != expected[i][j] {
				t.Fatalf("concurrent clone %d logit %d: %v want %v", i, j, results[i][j], expected[i][j])
			}
		}
	}
}

func TestCloneOfLoadedNetwork(t *testing.T) {
	// Clone must work on networks that came from Load (arch recorded by
	// buildFrom, ops from packed weights).
	net, err := TinyVGG(feat(), RandomWeights{Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	clone := net.Clone().Clone() // clone of a clone, too
	x := workload.RandTensor(workload.NewRNG(55), 32, 32, 3)
	want := net.Infer(x)
	got := clone.Infer(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d differs", i)
		}
	}
}

func TestWidthInvariance(t *testing.T) {
	// The same architecture and weights under every kernel-tier cap must
	// produce bit-identical logits: vector width is a performance knob,
	// never a semantics knob.
	x := workload.RandTensor(workload.NewRNG(56), 32, 32, 3)
	var want []float32
	for _, cap := range []kernels.Width{kernels.W512, kernels.W256, kernels.W128, kernels.W64} {
		net, err := TinyVGG(feat().WithMaxWidth(cap), RandomWeights{Seed: 57})
		if err != nil {
			t.Fatal(err)
		}
		got := net.Infer(x)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width cap %v: logit %d = %v want %v", cap, i, got[i], want[i])
			}
		}
	}
}
