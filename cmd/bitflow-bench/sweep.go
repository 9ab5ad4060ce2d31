package main

import (
	"fmt"
	"os"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/bitpack"
	"bitflow/internal/core"
	"bitflow/internal/exec"
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/workload"
)

// runSweep is an extension experiment beyond the paper's figures: a
// channel-count sweep of one convolution geometry across every kernel
// tier, showing (a) where each tier becomes profitable, validating the
// scheduler's §III-B selection rules empirically, and (b) what the
// SelectPadded alternative (pad packed vectors up to the widest tier
// instead of falling back to scalar) costs or gains.
func runSweep(feat sched.Features) error {
	fmt.Println("== extension: kernel-tier sweep across channel counts (28x28 conv, K=64, 3x3) ==")
	channels := []int{32, 64, 96, 128, 192, 256, 384, 512, 768, 1024}
	if *flagQuick {
		channels = []int{64, 128, 256, 512}
	}
	t := bench.NewTable("C", "rule tier", "scalar64", "sse128", "avx256", "avx512", "rule pick", "padded pick")
	for _, c := range channels {
		times := map[kernels.Width]time.Duration{}
		cells := map[kernels.Width]string{}
		for _, w := range []kernels.Width{kernels.W64, kernels.W128, kernels.W256, kernels.W512} {
			if w != kernels.W64 && c%w.Bits() != 0 {
				cells[w] = "-" // tier inapplicable without padding
				continue
			}
			plan := sched.Select(c, feat.WithMaxWidth(w))
			d, err := measureConvPlan(c, plan)
			if err != nil {
				return err
			}
			times[w] = d
			cells[w] = bench.Ms(d)
		}
		rulePlan := sched.Select(c, feat)
		padPlan := sched.SelectPadded(c, feat)
		padTime, err := measureConvPlan(c, padPlan)
		if err != nil {
			return err
		}
		t.Row(c, rulePlan.Width,
			cells[kernels.W64], cells[kernels.W128], cells[kernels.W256], cells[kernels.W512],
			bench.Ms(times[rulePlan.Width]), bench.Ms(padTime))
	}
	t.Render(os.Stdout)
	fmt.Println("\n  'rule pick' is the paper's §III-B selection; 'padded pick' always pads up to")
	fmt.Println("  the widest tier (sched.SelectPadded), trading wasted XOR lanes for wider steps.")
	fmt.Println()
	return nil
}

// measureConvPlan times one ForwardPacked pass of a 28×28×C K=64 conv
// under the given plan.
func measureConvPlan(c int, plan sched.Plan) (time.Duration, error) {
	r := workload.NewRNG(*flagSeed ^ uint64(c))
	shape, err := sched.InferConv(28, 28, c, 64, 3, 3, 1, 1)
	if err != nil {
		return 0, err
	}
	cv, err := core.NewConv(shape, plan, workload.PM1Filter(r, 64, 3, 3, c))
	if err != nil {
		return 0, err
	}
	in := cv.NewInput()
	bitpack.PackTensorInto(workload.PM1Tensor(r, 28, 28, c), in)
	out := bitpack.NewPacked(shape.OutH, shape.OutW, 64, 1, 0, 0)
	ins, outs := []*bitpack.Packed{in}, []*bitpack.Packed{out}
	return measure(func(threads int) { cv.ForwardFused(ins, nil, nil, outs, exec.Threads(threads)) }, 1), nil
}
