package core

import (
	"fmt"
	"testing"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// randThresholds builds a folded activation exercising both comparison
// directions and the extreme encodings (γ=0 constants, MaxInt32 overflow
// probe for the flipped T+1 adjustment).
func randThresholds(r *workload.RNG, k, span int) *Thresholds {
	th := NewThresholds(k)
	for c := 0; c < k; c++ {
		switch r.Intn(8) {
		case 0:
			th.T[c] = 1<<31 - 1 // MaxInt32
		case 1:
			th.T[c] = -1 << 31 // MinInt32
		default:
			th.T[c] = int32(r.Intn(2*span+1) - span)
		}
		th.Flip[c] = r.Intn(2) == 0
	}
	return th
}

// fusedCase wires a conv (+thresholds) and an eligible pool.
type fusedCase struct {
	cv   *Conv
	pl   *Pool
	in   *bitpack.Packed
	conv *bitpack.Packed // unfused conv output
	want *bitpack.Packed // unfused pool output
	got  *bitpack.Packed // fused output
}

func buildFused(t *testing.T, r *workload.RNG, h, w, c, k, kh, kw, stride, pad, pkh, pkw, pstride int, withTh bool) fusedCase {
	t.Helper()
	cv, _, packed := buildConv(t, r, h, w, c, k, kh, kw, stride, pad)
	if withTh {
		if err := cv.SetThresholds(randThresholds(r, k, cv.validLanes)); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := sched.InferPool(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, pkh, pkw, pstride)
	if err != nil {
		t.Fatal(err)
	}
	wpp := sched.Select(k, feat()).Words
	pl, err := NewPool(ps, wpp)
	if err != nil {
		t.Fatal(err)
	}
	return fusedCase{
		cv: cv, pl: pl, in: packed,
		conv: bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, wpp, 0, 0),
		want: bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1),
		got:  bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1),
	}
}

func (fc *fusedCase) check(t *testing.T, label string, ec *exec.Ctx) {
	t.Helper()
	fc.cv.ForwardFused(one(fc.in), nil, nil, one(fc.conv), ec)
	fc.pl.Forward(fc.conv, fc.want, ec)
	// Poison the fused destination: stale interior bits must be
	// overwritten, margins must stay untouched.
	for i := range fc.got.Words {
		fc.got.Words[i] = ^uint64(0)
	}
	for y := 0; y < fc.got.H; y++ {
		for x := 0; x < fc.got.W; x++ {
			clear(fc.got.PixelWords(y, x))
		}
	}
	fc.cv.ForwardFused(one(fc.in), fc.pl, nil, one(fc.got), ec)
	for y := 0; y < fc.want.H; y++ {
		for x := 0; x < fc.want.W; x++ {
			ww := fc.want.PixelWords(y, x)
			gw := fc.got.PixelWords(y, x)
			for i := range ww {
				if ww[i] != gw[i] {
					t.Fatalf("%s: fused pixel (%d,%d) word %d = %016x, want %016x",
						label, y, x, i, gw[i], ww[i])
				}
			}
		}
	}
}

func TestConvForwardFusedMatchesUnfused(t *testing.T) {
	r := workload.NewRNG(90)
	cases := []struct {
		name                                          string
		h, w, c, k, kh, kw, stride, pad, pkh, pkw, ps int
	}{
		{"vgg2x2", 8, 8, 64, 70, 3, 3, 1, 1, 2, 2, 2},
		{"3x3pool", 9, 9, 128, 64, 3, 3, 1, 1, 3, 3, 3},
		{"ragged", 9, 7, 100, 33, 3, 3, 1, 1, 2, 2, 2}, // dropped conv pixels + partial words
		{"stride>win", 10, 10, 64, 16, 3, 3, 1, 1, 2, 2, 3},
		{"1x1conv", 8, 8, 256, 128, 1, 1, 1, 0, 2, 2, 2},
		{"wideK", 6, 6, 64, 200, 3, 3, 1, 1, 2, 2, 2},
		{"convstride2", 16, 16, 64, 32, 3, 3, 2, 1, 2, 2, 2},
	}
	for _, tc := range cases {
		for _, withTh := range []bool{false, true} {
			fc := buildFused(t, r, tc.h, tc.w, tc.c, tc.k, tc.kh, tc.kw, tc.stride, tc.pad, tc.pkh, tc.pkw, tc.ps, withTh)
			fc.check(t, tc.name, exec.Serial())
		}
	}
}

func TestConvForwardFusedThreadsAgree(t *testing.T) {
	r := workload.NewRNG(91)
	fc := buildFused(t, r, 12, 12, 128, 96, 3, 3, 1, 1, 2, 2, 2, true)
	fc.check(t, "serial", exec.Serial())
	serial := append([]uint64(nil), fc.got.Words...)
	for _, threads := range []int{2, 4, 16} {
		fc.check(t, "threads", exec.Threads(threads))
		for i, v := range fc.got.Words {
			if v != serial[i] {
				t.Fatalf("threads=%d: word %d differs from serial", threads, i)
			}
		}
	}
}

// TestConvForwardFusedNilPoolIsForwardPacked pins the nil pool to its
// definition: a 1×1 window with stride 1, on both steps.
func TestConvForwardFusedNilPoolIsForwardPacked(t *testing.T) {
	r := workload.NewRNG(92)
	cv, _, packed := buildConv(t, r, 6, 6, 64, 40, 3, 3, 1, 1)
	wpp := sched.Select(40, feat()).Words
	ps, err := sched.InferPool(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := NewPool(ps, wpp)
	if err != nil {
		t.Fatal(err)
	}
	ins := []*bitpack.Packed{packed, cv.NewInput()}
	bitpack.PackTensorInto(workload.PM1Tensor(r, 6, 6, 64), ins[1])
	for _, B := range []int{1, 2} {
		a, c := make([]*bitpack.Packed, B), make([]*bitpack.Packed, B)
		for b := range a {
			a[b] = bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, wpp, 0, 0)
			c[b] = bitpack.NewPacked(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, wpp, 0, 0)
		}
		cv.ForwardFused(ins[:B], nil, nil, a, exec.Serial())
		cv.ForwardFused(ins[:B], unit, nil, c, exec.Serial())
		for b := range a {
			equalPacked(t, fmt.Sprintf("B=%d image %d: nil pool vs 1x1 pool", B, b), c[b], a[b])
		}
	}
}

func TestCanFusePool(t *testing.T) {
	r := workload.NewRNG(93)
	cv, _, _ := buildConv(t, r, 8, 8, 64, 16, 3, 3, 1, 1) // out 8x8x16
	ok := func(kh, kw, stride int) bool {
		ps, err := sched.InferPool(cv.Shape.OutH, cv.Shape.OutW, cv.Shape.OutC, kh, kw, stride)
		if err != nil {
			t.Fatal(err)
		}
		return cv.CanFusePool(ps)
	}
	if !ok(2, 2, 2) || !ok(3, 3, 3) || !ok(2, 2, 3) || !ok(1, 1, 1) {
		t.Error("non-overlapping pools should fuse")
	}
	if ok(2, 2, 1) || ok(3, 3, 2) {
		t.Error("overlapping pools must not fuse")
	}
	// Geometry mismatch: pool sized for a different input plane.
	ps, err := sched.InferPool(4, 4, 16, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cv.CanFusePool(ps) {
		t.Error("pool over mismatched geometry must not fuse")
	}
}

func TestConvForwardFusedBatchBitIdentical(t *testing.T) {
	r := workload.NewRNG(94)
	fc := buildFused(t, r, 9, 7, 100, 70, 3, 3, 1, 1, 2, 2, 2, true)
	cv, pl := fc.cv, fc.pl
	wpp := fc.got.WPP
	for _, B := range []int{1, 2, 3, 5} {
		ins := make([]*bitpack.Packed, B)
		outs := make([]*bitpack.Packed, B)
		wants := make([]*bitpack.Packed, B)
		for b := 0; b < B; b++ {
			in := workload.PM1Tensor(r, 9, 7, 100)
			ins[b] = cv.NewInput()
			bitpack.PackTensorInto(in, ins[b])
			outs[b] = bitpack.NewPacked(pl.Shape.OutH, pl.Shape.OutW, pl.Shape.OutC, wpp, 0, 0)
			wants[b] = bitpack.NewPacked(pl.Shape.OutH, pl.Shape.OutW, pl.Shape.OutC, wpp, 0, 0)
			cv.ForwardFused(ins[b:b+1], pl, nil, wants[b:b+1], exec.Serial())
		}
		cv.ForwardFused(ins, pl, nil, outs, exec.Threads(2))
		for b := 0; b < B; b++ {
			for i := range wants[b].Words {
				if outs[b].Words[i] != wants[b].Words[i] {
					t.Fatalf("B=%d lane %d word %d: batched fused differs from serial fused", B, b, i)
				}
			}
		}
	}
}
