package graph

import (
	"testing"

	"bitflow/internal/exec"
	"bitflow/internal/workload"
)

// TestDeepChainIntegration runs a deliberately heterogeneous network —
// mixed-precision stem, BN folds, strided conv, non-square pooling
// geometry, dense chain — end to end twice and through a save/load +
// clone cycle, checking global determinism. It is the "everything at
// once" integration net.
func TestDeepChainIntegration(t *testing.T) {
	ws := &bnSource{RandomWeights: RandomWeights{Seed: 200}}
	net, err := NewBuilder("kitchen-sink", 16, 16, 3, feat()).
		FloatConv("stem", 64, 3, 3, 1, 1).
		BatchNorm("stem/bn").
		Conv3x3("c1", 128).
		BatchNorm("c1/bn").
		Conv("c2", 128, 3, 3, 2, 1). // strided binary conv
		Pool("p1", 2, 2, 2).
		Conv3x3("c3", 64).
		Flatten().
		Dense("d1", 96).
		BatchNorm("d1/bn").
		Dense("d2", 7).
		Build(ws)
	if err != nil {
		t.Fatal(err)
	}
	if net.Classes != 7 {
		t.Fatalf("classes %d", net.Classes)
	}
	// Shape walk: 16 → stem 16 → c1 16 → c2 (stride 2) 8 → pool 4 → c3 4
	// → flatten 4·4·64 = 1024. The strided c2 and p1 fuse into one node.
	infos := net.Layers()
	if infos[2].Name != "c2+p1" || infos[2].OutDims != "4x4x128" {
		t.Errorf("fused strided conv+pool = %+v", infos[2])
	}
	if infos[3].OutDims != "4x4x64" {
		t.Errorf("c3 out %s", infos[3].OutDims)
	}

	x := workload.RandTensor(workload.NewRNG(201), 16, 16, 3)
	first := net.Infer(x)
	net.Infer(workload.RandTensor(workload.NewRNG(202), 16, 16, 3)) // dirty the buffers
	second := net.Infer(x)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic logit %d", i)
		}
	}

	clone := net.Clone()
	got := clone.Infer(x)
	for i := range first {
		if got[i] != first[i] {
			t.Fatalf("clone logit %d differs", i)
		}
	}
}

func TestThreadSweepDeterminismAcrossWholeNetwork(t *testing.T) {
	net, err := TinyVGG(feat(), RandomWeights{Seed: 203})
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandTensor(workload.NewRNG(204), 32, 32, 3)
	want := net.Infer(x)
	for _, threads := range []int{2, 3, 5, 8, 64} {
		net.SetExec(exec.Threads(threads))
		got := net.Infer(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d logit %d differs", threads, i)
			}
		}
	}
}

func TestActivationBytesMatchAllocation(t *testing.T) {
	net, err := NewBuilder("alloc", 8, 8, 64, feat()).
		Conv3x3("c1", 64).
		Pool("p1", 2, 2, 2).
		Dense("d1", 3).
		Build(RandomWeights{Seed: 205})
	if err != nil {
		t.Fatal(err)
	}
	// Input edge: (8+2)·(8+2)·1 word; pool out → flatten: 4·4·1. The
	// conv→pool intermediate plane (8·8·1 words) is eliminated by
	// fusion. All in words × 8 bytes.
	want := int64(10*10+4*4) * 8
	if got := net.ActivationBytes(); got != want {
		t.Errorf("ActivationBytes = %d want %d", got, want)
	}
	if fs := net.Fusion(); fs.Pairs != 1 || fs.EliminatedWords != 8*8 {
		t.Errorf("fusion stats = %+v", fs)
	}
	// An unfused clone still materializes the intermediate plane.
	unfused := net.CloneUnfused()
	if got := unfused.ActivationBytes(); got != want+8*8*8 {
		t.Errorf("unfused ActivationBytes = %d want %d", got, want+8*8*8)
	}
	if unfused.Fused() {
		t.Error("CloneUnfused reports Fused() = true")
	}
}
