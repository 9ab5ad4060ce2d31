package core

import (
	"testing"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// TestConvForwardPackedBatchBitIdentical pins the gathered batch step of
// ForwardFused (B > 1) to the B = 1 row step run image by image, with and without folded thresholds, across batch sizes
// and both kernel tiers exercised by the VGG-style shapes.
func TestConvForwardPackedBatchBitIdentical(t *testing.T) {
	feat := sched.Detect()
	for _, g := range []struct {
		name       string
		h, w, c, k int
	}{
		{"w64", 12, 12, 64, 64},   // one word per pixel → scalar tier
		{"w128", 10, 10, 128, 96}, // two words per pixel → wider tier
		{"oddK", 8, 8, 64, 70},    // K not a multiple of 64: tail word
	} {
		t.Run(g.name, func(t *testing.T) {
			r := workload.NewRNG(77)
			shape, err := sched.InferConv(g.h, g.w, g.c, g.k, 3, 3, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			plan := sched.Select(g.c, feat)
			cv, err := NewConv(shape, plan, workload.PM1Filter(r, g.k, 3, 3, g.c))
			if err != nil {
				t.Fatal(err)
			}
			// Install non-trivial thresholds: every third channel flipped.
			th := NewThresholds(g.k)
			for c := range th.T {
				th.T[c] = int32(c%5 - 2)
				th.Flip[c] = c%3 == 0
			}
			if err := cv.SetThresholds(th); err != nil {
				t.Fatal(err)
			}
			outWords := sched.Select(g.k, feat).Words
			for _, B := range []int{1, 2, 3, 7, 16} {
				ins := make([]*bitpack.Packed, B)
				outs := make([]*bitpack.Packed, B)
				want := make([]*bitpack.Packed, B)
				for b := 0; b < B; b++ {
					ins[b] = cv.NewInput()
					bitpack.PackTensorInto(workload.PM1Tensor(r, g.h, g.w, g.c), ins[b])
					outs[b] = bitpack.NewPacked(shape.OutH, shape.OutW, g.k, outWords, 1, 1)
					want[b] = bitpack.NewPacked(shape.OutH, shape.OutW, g.k, outWords, 1, 1)
				}
				cv.ForwardFused(ins, nil, nil, outs, exec.Serial())
				for b := 0; b < B; b++ {
					cv.ForwardFused(ins[b:b+1], nil, nil, want[b:b+1], exec.Serial())
					for i := range want[b].Words {
						if outs[b].Words[i] != want[b].Words[i] {
							t.Fatalf("B=%d image %d word %d: batched differs from sequential", B, b, i)
						}
					}
					if !outs[b].MarginsAllZero() {
						t.Fatalf("B=%d image %d: batched conv clobbered margins", B, b)
					}
				}
			}
		})
	}
}

// TestDenseBatchBitIdentical pins the batched dense forwards (packed and
// float, with thresholds/affine) to the same forwards run image by image.
func TestDenseBatchBitIdentical(t *testing.T) {
	feat := sched.Detect()
	r := workload.NewRNG(78)
	const N, K = 512, 70 // K with a tail word
	shape, err := sched.InferFC(N, K)
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.Select(N, feat)
	d, err := NewDense(shape, plan, workload.PM1Matrix(r, N, K))
	if err != nil {
		t.Fatal(err)
	}
	th := NewThresholds(K)
	for c := range th.T {
		th.T[c] = int32(c%7 - 3)
		th.Flip[c] = c%4 == 0
	}
	if err := d.SetThresholds(th); err != nil {
		t.Fatal(err)
	}
	aff := NewAffineFromBias(make([]float32, K))
	for c := range aff.Scale {
		aff.Scale[c] = float32(c%3) + 0.5
		aff.Shift[c] = float32(c) * 0.25
	}
	if err := d.SetAffine(aff); err != nil {
		t.Fatal(err)
	}
	for _, B := range []int{1, 2, 5, 8} {
		ins := make([][]uint64, B)
		for b := 0; b < B; b++ {
			ins[b] = d.NewInput()
			vals := make([]float32, N)
			for i := range vals {
				vals[i] = r.PM1()
			}
			bitpack.PackVectorInto(ins[b], vals)
		}
		// Packed path.
		outs := make([][]uint64, B)
		want := make([][]uint64, B)
		for b := 0; b < B; b++ {
			outs[b] = make([]uint64, bitpack.WordsFor(K))
			want[b] = make([]uint64, bitpack.WordsFor(K))
		}
		d.ForwardPacked(ins, outs, nil, &DenseScratch{}, exec.Serial())
		for b := 0; b < B; b++ {
			d.ForwardPacked(ins[b:b+1], want[b:b+1], nil, &DenseScratch{}, exec.Serial())
			for i := range want[b] {
				if outs[b][i] != want[b][i] {
					t.Fatalf("packed B=%d image %d word %d differs", B, b, i)
				}
			}
		}
		// Float path.
		foutsB := make([][]float32, B)
		fwant := make([]float32, K)
		for b := 0; b < B; b++ {
			foutsB[b] = make([]float32, K)
		}
		d.ForwardFloat(ins, foutsB, nil, &DenseScratch{}, exec.Serial())
		for b := 0; b < B; b++ {
			d.ForwardFloat(ins[b:b+1], [][]float32{fwant}, nil, &DenseScratch{}, exec.Serial())
			for i := range fwant {
				if foutsB[b][i] != fwant[i] {
					t.Fatalf("float B=%d image %d logit %d differs", B, b, i)
				}
			}
		}
	}
}
