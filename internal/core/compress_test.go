package core

import (
	"testing"

	"bitflow/internal/bitpack"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

// dupFilter rewrites f so every filter k repeats base pattern k%bases —
// after binarization the packed words duplicate across channels with
// ratio ≥ K/bases, the adversarially high-duplication bank.
func dupFilter(f *tensor.Filter, bases int) {
	per := f.KH * f.KW * f.C
	for k := bases; k < f.K; k++ {
		copy(f.Data[k*per:(k+1)*per], f.Data[(k%bases)*per:(k%bases+1)*per])
	}
}

// forcePlan installs a compression plan regardless of the measured
// duplication ratio, so low-duplication banks exercise the compressed
// path too.
func forcePlan(t testing.TB, cv *Conv) {
	t.Helper()
	s := cv.Shape.KH * cv.rowLen // fstride: words per filter
	if err := cv.SetCompression(kernels.BuildCompressPlan(cv.filter.Words, cv.Shape.K, s)); err != nil {
		t.Fatal(err)
	}
}

// equalPacked compares the interiors of two packed planes word for word.
func equalPacked(t testing.TB, label string, want, got *bitpack.Packed) {
	t.Helper()
	for y := 0; y < want.H; y++ {
		for x := 0; x < want.W; x++ {
			ww := want.PixelWords(y, x)
			gw := got.PixelWords(y, x)
			for i := range ww {
				if ww[i] != gw[i] {
					t.Fatalf("%s: pixel (%d,%d) word %d = %016x, want %016x", label, y, x, i, gw[i], ww[i])
				}
			}
		}
	}
}

// one wraps a single packed plane as a batch of one.
func one(p *bitpack.Packed) []*bitpack.Packed { return []*bitpack.Packed{p} }

// buildDupConv is buildConv with an optional duplicated filter bank.
func buildDupConv(t testing.TB, r *workload.RNG, h, w, c, k, kh, kw int, bases int) (*Conv, *bitpack.Packed) {
	t.Helper()
	shape, err := sched.InferConv(h, w, c, k, kh, kw, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.Select(c, feat())
	f := workload.PM1Filter(r, k, kh, kw, c)
	if bases > 0 {
		dupFilter(f, bases)
	}
	cv, err := NewConv(shape, plan, f)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.PM1Tensor(r, h, w, c)
	packed := cv.NewInput()
	bitpack.PackTensorInto(in, packed)
	return cv, packed
}

// TestCompressionAutoSelection pins the load-time threshold: a heavily
// duplicated bank selects the plan, a random wide bank does not (stats
// are still measured), and low-channel banks (the conv1.1 case, ≤ 2^C
// possible words per tap) auto-select.
func TestCompressionAutoSelection(t *testing.T) {
	r := workload.NewRNG(200)
	dup, _ := buildDupConv(t, r, 8, 8, 64, 64, 3, 3, 4)
	if dup.Compression() == nil {
		t.Fatalf("duplicated bank (ratio %v) not selected", dup.CompressionStats().Ratio())
	}
	if got := dup.CompressionStats().Ratio(); got < 16 {
		t.Fatalf("duplicated bank ratio %v, want ≥ 16 (K/bases)", got)
	}
	rnd, _ := buildDupConv(t, r, 8, 8, 64, 64, 3, 3, 0)
	if rnd.Compression() != nil {
		t.Fatalf("random 64-channel bank (ratio %v) unexpectedly selected", rnd.CompressionStats().Ratio())
	}
	if st := rnd.CompressionStats(); st.TotalWords == 0 || st.DistinctWords == 0 {
		t.Fatalf("stats not measured on unselected bank: %+v", st)
	}
	lowC, _ := buildDupConv(t, r, 8, 8, 3, 64, 3, 3, 0)
	if lowC.Compression() == nil {
		t.Fatalf("C=3 bank (≤8 distinct words/position, ratio %v) not selected", lowC.CompressionStats().Ratio())
	}
}

// TestConvCompressedMatchesUncompressed is the core differential pin:
// ForwardFused through a forced compression plan equals the streaming
// path word for word, without and with a fused pool, on high- and low-duplication banks,
// with and without folded thresholds, serial and threaded.
func TestConvCompressedMatchesUncompressed(t *testing.T) {
	r := workload.NewRNG(201)
	cases := []struct {
		name           string
		h, w, c, k     int
		kh, kw         int
		bases          int
		pkh, pkw, pstr int
	}{
		{"high-dup", 8, 8, 64, 70, 3, 3, 4, 2, 2, 2},
		{"low-dup", 8, 8, 128, 64, 3, 3, 0, 2, 2, 2},
		{"low-channel", 10, 10, 3, 64, 3, 3, 0, 2, 2, 2},
		{"ragged", 9, 7, 100, 33, 3, 3, 3, 2, 2, 2},
		{"1x1", 8, 8, 256, 128, 1, 1, 2, 2, 2, 2},
		{"5x5", 9, 9, 64, 32, 5, 5, 2, 3, 3, 3},
	}
	for _, tc := range cases {
		for _, withTh := range []bool{false, true} {
			cv, in := buildDupConv(t, r, tc.h, tc.w, tc.c, tc.k, tc.kh, tc.kw, tc.bases)
			if withTh {
				if err := cv.SetThresholds(randThresholds(r, tc.k, cv.validLanes)); err != nil {
					t.Fatal(err)
				}
			}
			forcePlan(t, cv)
			s := cv.Shape
			wpp := sched.Select(tc.k, feat()).Words
			want := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 1, 1)
			got := bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 1, 1)
			for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
				cv.ForwardFused(one(in), nil, nil, one(want), ec)
				cv.ForwardFused(one(in), nil, cv.Compression(), one(got), ec)
				equalPacked(t, tc.name+"/packed", want, got)
			}
			// Fused conv→pool, when the pool geometry is eligible.
			ps, err := sched.InferPool(s.OutH, s.OutW, s.OutC, tc.pkh, tc.pkw, tc.pstr)
			if err != nil || !cv.CanFusePool(ps) {
				continue
			}
			pl, err := NewPool(ps, wpp)
			if err != nil {
				t.Fatal(err)
			}
			fwant := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1)
			fgot := bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 1, 1)
			for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
				cv.ForwardFused(one(in), pl, nil, one(fwant), ec)
				cv.ForwardFused(one(in), pl, cv.Compression(), one(fgot), ec)
				equalPacked(t, tc.name+"/fused", fwant, fgot)
			}
		}
	}
}

// TestConvCompressedBatchMatches pins ForwardFused through the plan
// against the streaming path for B = 1..4, without and with a pool.
func TestConvCompressedBatchMatches(t *testing.T) {
	r := workload.NewRNG(202)
	cv, _ := buildDupConv(t, r, 8, 8, 64, 48, 3, 3, 4)
	if cv.Compression() == nil {
		t.Fatal("duplicated bank not selected")
	}
	s := cv.Shape
	wpp := sched.Select(s.K, feat()).Words
	ps, err := sched.InferPool(s.OutH, s.OutW, s.OutC, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPool(ps, wpp)
	if err != nil {
		t.Fatal(err)
	}
	for B := 1; B <= 4; B++ {
		ins := make([]*bitpack.Packed, B)
		wantP := make([]*bitpack.Packed, B)
		gotP := make([]*bitpack.Packed, B)
		wantF := make([]*bitpack.Packed, B)
		gotF := make([]*bitpack.Packed, B)
		for b := 0; b < B; b++ {
			in := workload.PM1Tensor(r, 8, 8, 64)
			ins[b] = cv.NewInput()
			bitpack.PackTensorInto(in, ins[b])
			wantP[b] = bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 0, 0)
			gotP[b] = bitpack.NewPacked(s.OutH, s.OutW, s.OutC, wpp, 0, 0)
			wantF[b] = bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 0, 0)
			gotF[b] = bitpack.NewPacked(ps.OutH, ps.OutW, ps.OutC, wpp, 0, 0)
		}
		for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
			cv.ForwardFused(ins, nil, nil, wantP, ec)
			cv.ForwardFused(ins, nil, cv.Compression(), gotP, ec)
			for b := 0; b < B; b++ {
				equalPacked(t, "packed", wantP[b], gotP[b])
			}
			cv.ForwardFused(ins, pl, nil, wantF, ec)
			cv.ForwardFused(ins, pl, cv.Compression(), gotF, ec)
			for b := 0; b < B; b++ {
				equalPacked(t, "fused", wantF[b], gotF[b])
			}
		}
	}
}

// TestDenseCompressedMatches pins every dense forward through the plan —
// int32, float (with affine) and packed, at B = 1 and B = 5 — against
// the streaming weights.
func TestDenseCompressedMatches(t *testing.T) {
	r := workload.NewRNG(203)
	n, k := 256, 70
	shape, err := sched.InferFC(n, k)
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.Select(n, feat())
	w := workload.PM1Matrix(r, n, k)
	// Duplicate columns so the packed-transposed rows repeat: output unit
	// k's weights are column k, so repeating columns duplicates rows of Bᵀ.
	for row := 0; row < n; row++ {
		for col := 3; col < k; col++ {
			w.Data[row*k+col] = w.Data[row*k+col%3]
		}
	}
	d, err := NewDense(shape, plan, w)
	if err != nil {
		t.Fatal(err)
	}
	if d.Compression() == nil {
		t.Fatalf("duplicated dense bank (ratio %v) not selected", d.CompressionStats().Ratio())
	}
	if err := d.SetThresholds(randThresholds(r, k, n)); err != nil {
		t.Fatal(err)
	}
	aff := make([]float32, k)
	for i := range aff {
		aff[i] = r.PM1()
	}
	if err := d.SetAffine(NewAffineFromBias(aff)); err != nil {
		t.Fatal(err)
	}

	B := 5
	ins := make([][]uint64, B)
	for b := 0; b < B; b++ {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = r.PM1()
		}
		ins[b] = d.NewInput()
		bitpack.PackVectorInto(ins[b], vals)
	}
	cp := d.Compression()
	for _, ec := range []*exec.Ctx{exec.Serial(), exec.Threads(3)} {
		for _, m := range []int{1, B} {
			var sw, sg DenseScratch
			wOuts, gOuts := make([][]int32, m), make([][]int32, m)
			wfB, gfB := make([][]float32, m), make([][]float32, m)
			wpB, gpB := make([][]uint64, m), make([][]uint64, m)
			for b := 0; b < m; b++ {
				wOuts[b], gOuts[b] = make([]int32, k), make([]int32, k)
				wfB[b], gfB[b] = make([]float32, k), make([]float32, k)
				wpB[b], gpB[b] = make([]uint64, bitpack.WordsFor(k)), make([]uint64, bitpack.WordsFor(k))
			}
			d.Forward(ins[:m], wOuts, nil, &sw, ec)
			d.Forward(ins[:m], gOuts, cp, &sg, ec)
			d.ForwardFloat(ins[:m], wfB, nil, &sw, ec)
			d.ForwardFloat(ins[:m], gfB, cp, &sg, ec)
			d.ForwardPacked(ins[:m], wpB, nil, &sw, ec)
			d.ForwardPacked(ins[:m], gpB, cp, &sg, ec)
			for b := 0; b < m; b++ {
				for i := range wOuts[b] {
					if wOuts[b][i] != gOuts[b][i] {
						t.Fatalf("B=%d item %d: compressed Forward[%d]=%d want %d", m, b, i, gOuts[b][i], wOuts[b][i])
					}
				}
				for i := range wfB[b] {
					if wfB[b][i] != gfB[b][i] {
						t.Fatalf("B=%d item %d: compressed float logit %d = %v want %v", m, b, i, gfB[b][i], wfB[b][i])
					}
				}
				for i := range wpB[b] {
					if wpB[b][i] != gpB[b][i] {
						t.Fatalf("B=%d item %d: compressed packed word %d = %016x want %016x", m, b, i, gpB[b][i], wpB[b][i])
					}
				}
			}
		}
	}
}

// TestSetCompressionValidates pins the geometry check and the nil-clear.
func TestSetCompressionValidates(t *testing.T) {
	r := workload.NewRNG(204)
	cv, _ := buildDupConv(t, r, 8, 8, 64, 32, 3, 3, 2)
	if err := cv.SetCompression(kernels.BuildCompressPlan(make([]uint64, 4*2), 4, 2)); err == nil {
		t.Fatal("mismatched conv plan accepted")
	}
	if err := cv.SetCompression(nil); err != nil || cv.Compression() != nil {
		t.Fatal("nil did not clear the conv plan")
	}
	shape, _ := sched.InferFC(128, 10)
	d, err := NewDense(shape, sched.Select(128, feat()), workload.PM1Matrix(r, 128, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetCompression(kernels.BuildCompressPlan(make([]uint64, 4*2), 4, 2)); err == nil {
		t.Fatal("mismatched dense plan accepted")
	}
	if err := d.SetCompression(nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzCompressedConv is the differential fuzz harness over the whole
// ForwardFused product: arbitrary geometries, weight banks — including
// adversarially low- and high-duplication ones — and batch sizes 1..4.
// Each iteration checks that the plan's output equals the streaming
// output word for word, with and without a fused pool, and that every
// image of a B > 1 call (the gathered step) equals its own B = 1 call
// (the row step). The seed corpus pins an all-words-identical bank
// (every filter the same, one distinct word per position) and an
// all-words-distinct one.
func FuzzCompressedConv(f *testing.F) {
	// seed, h, w, c, k, bases (0 = independent random filters,
	// 1 = all filters identical), withThresholds, batch (B = batch%4+1).
	f.Add(uint64(1), uint8(8), uint8(8), uint8(64), uint8(32), uint8(1), true, uint8(0))  // all words identical
	f.Add(uint64(2), uint8(8), uint8(8), uint8(255), uint8(16), uint8(0), true, uint8(1)) // wide random: words distinct
	f.Add(uint64(3), uint8(6), uint8(9), uint8(3), uint8(40), uint8(0), false, uint8(2))  // conv1.1-style low channel
	f.Add(uint64(4), uint8(9), uint8(7), uint8(100), uint8(33), uint8(3), true, uint8(3)) // ragged + 3 bases
	f.Add(uint64(5), uint8(5), uint8(5), uint8(64), uint8(1), uint8(0), false, uint8(1))  // single filter
	f.Fuzz(func(t *testing.T, seed uint64, hh, ww, cc, kk, bb uint8, withTh bool, batch uint8) {
		h := int(hh)%8 + 3
		w := int(ww)%8 + 3
		c := int(cc)%200 + 1
		k := int(kk)%72 + 1
		B := int(batch)%4 + 1
		bases := 0
		if bb > 0 {
			bases = int(bb)%k + 1
		}
		r := workload.NewRNG(seed)
		shape, err := sched.InferConv(h, w, c, k, 3, 3, 1, 1)
		if err != nil {
			t.Skip()
		}
		plan := sched.Select(c, feat())
		fl := workload.PM1Filter(r, k, 3, 3, c)
		if bases > 0 {
			dupFilter(fl, bases)
		}
		cv, err := NewConv(shape, plan, fl)
		if err != nil {
			t.Skip()
		}
		if withTh {
			if err := cv.SetThresholds(randThresholds(r, k, cv.validLanes)); err != nil {
				t.Fatal(err)
			}
		}
		forcePlan(t, cv)
		cp := cv.Compression()
		ins := make([]*bitpack.Packed, B)
		for b := range ins {
			ins[b] = cv.NewInput()
			bitpack.PackTensorInto(workload.PM1Tensor(r, h, w, c), ins[b])
		}
		s := cv.Shape
		wpp := sched.Select(k, feat()).Words
		pools := []*Pool{nil}
		if ps, err := sched.InferPool(s.OutH, s.OutW, s.OutC, 2, 2, 2); err == nil && cv.CanFusePool(ps) {
			pl, err := NewPool(ps, wpp)
			if err != nil {
				t.Fatal(err)
			}
			pools = append(pools, pl)
		}
		for _, pl := range pools {
			label, oh, ow := "packed", s.OutH, s.OutW
			if pl != nil {
				label, oh, ow = "fused", pl.Shape.OutH, pl.Shape.OutW
			}
			newOuts := func(n int) []*bitpack.Packed {
				outs := make([]*bitpack.Packed, n)
				for b := range outs {
					outs[b] = bitpack.NewPacked(oh, ow, k, wpp, 0, 0)
				}
				return outs
			}
			want, got := newOuts(B), newOuts(B)
			cv.ForwardFused(ins, pl, nil, want, exec.Serial())
			cv.ForwardFused(ins, pl, cp, got, exec.Serial())
			for b := range ins {
				equalPacked(t, label, want[b], got[b])
			}
			if B == 1 {
				continue
			}
			for _, run := range []struct {
				cp      *kernels.CompressPlan
				batched []*bitpack.Packed
			}{{nil, want}, {cp, got}} {
				for b := range ins {
					single := newOuts(1)
					cv.ForwardFused(ins[b:b+1], pl, run.cp, single, exec.Serial())
					equalPacked(t, label+" B=1 vs batch", single[0], run.batched[b])
				}
			}
		}
	})
}
