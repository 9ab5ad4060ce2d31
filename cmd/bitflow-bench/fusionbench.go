// The `ops` subcommand benchmarks the fused binarization data-flow
// (conv → threshold → binarize → pool as one packed-bit epilogue) and
// emits BENCH_fusion.json:
//
//  1. Per-layer fused-vs-unfused comparison: for every fused conv+pool
//     node, the wall-clock of the fused node vs its conv-then-pool
//     split, plus the bytes of intermediate packed-plane traffic the
//     fusion eliminated (written once by the conv, read once by the
//     pool — 2× the plane size per pass).
//  2. End-to-end img/s of the fused vs unfused network plan.
//
// Quick mode runs TinyVGG and a pool-heavy small net; the full run adds
// VGG-16. Logits are checked bit-identical between the two plans before
// any timing is reported, so the numbers can never come from divergent
// computations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bitflow/internal/bench"
	"bitflow/internal/exec"
	"bitflow/internal/graph"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

var flagFusionOut = flag.String("fusion-out", "BENCH_fusion.json", "output path for the `ops` subcommand report")

type fusionLayerRow struct {
	Network string `json:"network"`
	Layer   string `json:"layer"` // fused node name, e.g. "conv5.3+pool5"
	// Times are per forward pass of just this node (median of -runs).
	FusedMs   float64 `json:"fused_ms"`
	UnfusedMs float64 `json:"unfused_ms"` // conv + pool, separate nodes
	Speedup   float64 `json:"speedup"`
	// EliminatedBytes is the intermediate packed plane the fused node
	// never materializes; EliminatedTrafficBytes counts both the write
	// and the re-read the unfused plan performs per pass.
	EliminatedBytes        int64 `json:"eliminated_plane_bytes"`
	EliminatedTrafficBytes int64 `json:"eliminated_traffic_bytes"`
}

type fusionNetRow struct {
	Network      string  `json:"network"`
	FusedPairs   int     `json:"fused_pairs"`
	FusedIPS     float64 `json:"fused_images_per_sec"`
	UnfusedIPS   float64 `json:"unfused_images_per_sec"`
	Speedup      float64 `json:"speedup"`
	ActBytes     int64   `json:"activation_bytes_fused"`
	ActBytesUnf  int64   `json:"activation_bytes_unfused"`
	BytesSavedPc float64 `json:"activation_bytes_saved_pct"`
}

type fusionReport struct {
	Features string           `json:"features"`
	Cores    int              `json:"cores"`
	Layers   []fusionLayerRow `json:"layers"`
	Networks []fusionNetRow   `json:"networks"`
}

// poolNet is a deliberately pool-heavy small network: every conv feeds a
// fusable 2×2/2 pool, the best case for the fused epilogue.
func poolNet(feat sched.Features, seed uint64) (*graph.Network, error) {
	return graph.NewBuilder("PoolNet", 32, 32, 3, feat).
		FloatConv("stem", 64, 3, 3, 1, 1).
		Conv3x3("c1", 64).
		Pool("p1", 2, 2, 2).
		Conv3x3("c2", 128).
		Pool("p2", 2, 2, 2).
		Conv3x3("c3", 128).
		Pool("p3", 2, 2, 2).
		Dense("fc", 10).
		Build(graph.RandomWeights{Seed: seed})
}

func runFusionBench(feat sched.Features) error {
	type netCase struct {
		name  string
		build func() (*graph.Network, error)
	}
	cases := []netCase{
		{"TinyVGG", func() (*graph.Network, error) { return graph.TinyVGG(feat, graph.RandomWeights{Seed: *flagSeed}) }},
		{"PoolNet", func() (*graph.Network, error) { return poolNet(feat, *flagSeed) }},
	}
	if !*flagQuick {
		cases = append(cases, netCase{"VGG16", func() (*graph.Network, error) {
			return graph.VGG16(feat, graph.RandomWeights{Seed: *flagSeed})
		}})
	}

	rep := fusionReport{Features: fmt.Sprint(feat), Cores: bench.PhysicalCores()}
	threads := bench.PhysicalCores()

	for _, c := range cases {
		fused, err := c.build()
		if err != nil {
			return err
		}
		fused.SetExec(exec.Threads(threads))
		unfused := fused.CloneUnfused()

		x := workload.RandTensor(workload.NewRNG(*flagSeed+7), fused.InH, fused.InW, fused.InC)
		if err := checkPlansAgree(fused, unfused, x); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}

		// Per-layer comparison: time each fused node and its unfused
		// conv/pool counterparts from the per-layer timing sweep.
		fusedOrder, fusedT := medianTimings(fused, x)
		_, unfusedT := medianTimings(unfused, x)
		fmt.Printf("== %s: fused vs unfused per layer ==\n", c.name)
		t := bench.NewTable("layer", "fused", "unfused (conv+pool)", "speedup", "plane traffic cut")
		for _, lt := range fusedOrder {
			if lt.Kind != "conv+pool" {
				continue
			}
			convName, poolName, ok := splitFusedName(lt.Name)
			if !ok {
				continue
			}
			split := unfusedT[convName] + unfusedT[poolName]
			planeBytes := eliminatedPlaneBytes(unfused, poolName)
			row := fusionLayerRow{
				Network:                c.name,
				Layer:                  lt.Name,
				FusedMs:                round2(float64(fusedT[lt.Name]) / float64(time.Millisecond)),
				UnfusedMs:              round2(float64(split) / float64(time.Millisecond)),
				Speedup:                round2(float64(split) / float64(fusedT[lt.Name])),
				EliminatedBytes:        planeBytes,
				EliminatedTrafficBytes: 2 * planeBytes,
			}
			rep.Layers = append(rep.Layers, row)
			t.Row(lt.Name, bench.Ms(time.Duration(row.FusedMs*float64(time.Millisecond))),
				bench.Ms(split), fmt.Sprintf("%.2fx", row.Speedup),
				fmt.Sprintf("%d B", row.EliminatedTrafficBytes))
		}
		t.Render(os.Stdout)

		// End-to-end throughput under both plans.
		fd := measureInfer(fused, x)
		ud := measureInfer(unfused, x)
		nr := fusionNetRow{
			Network:     c.name,
			FusedPairs:  fused.Fusion().Pairs,
			FusedIPS:    round2(float64(time.Second) / float64(fd)),
			UnfusedIPS:  round2(float64(time.Second) / float64(ud)),
			Speedup:     round2(float64(ud) / float64(fd)),
			ActBytes:    fused.ActivationBytes(),
			ActBytesUnf: unfused.ActivationBytes(),
		}
		if nr.ActBytesUnf > 0 {
			nr.BytesSavedPc = round2(100 * float64(nr.ActBytesUnf-nr.ActBytes) / float64(nr.ActBytesUnf))
		}
		rep.Networks = append(rep.Networks, nr)
		fmt.Printf("end-to-end: fused %.2f img/s, unfused %.2f img/s (%.2fx), activation memory %d → %d bytes (−%.1f%%)\n\n",
			nr.FusedIPS, nr.UnfusedIPS, nr.Speedup, nr.ActBytesUnf, nr.ActBytes, nr.BytesSavedPc)
	}

	f, err := os.Create(*flagFusionOut)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *flagFusionOut)
	return nil
}

// checkPlansAgree pins bit-identical logits before any timing runs.
func checkPlansAgree(fused, unfused *graph.Network, x *tensor.Tensor) error {
	a := fused.Infer(x)
	b := unfused.Infer(x)
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("fused and unfused plans disagree at logit %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// medianTimings runs -runs timed passes and keeps the per-layer median:
// the slice preserves execution order (names and kinds from the first
// pass), the map holds the median duration per layer name.
func medianTimings(n *graph.Network, x *tensor.Tensor) ([]graph.LayerTiming, map[string]time.Duration) {
	samples := map[string][]time.Duration{}
	var order []graph.LayerTiming
	for r := 0; r < *flagRuns; r++ {
		_, timings := n.InferTimed(x)
		if r == 0 {
			order = timings
		}
		for _, lt := range timings {
			samples[lt.Name] = append(samples[lt.Name], lt.Duration)
		}
	}
	out := make(map[string]time.Duration, len(order))
	for name, ds := range samples {
		out[name] = medianDuration(ds)
	}
	return order, out
}

func medianDuration(ds []time.Duration) time.Duration {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

// splitFusedName decomposes "conv5.3+pool5" into its halves.
func splitFusedName(name string) (conv, pool string, ok bool) {
	for i := len(name) - 1; i > 0; i-- {
		if name[i] == '+' {
			return name[:i], name[i+1:], true
		}
	}
	return "", "", false
}

// eliminatedPlaneBytes finds, on the unfused network, the packed plane
// the named pool layer consumes — exactly the buffer fusion removes.
func eliminatedPlaneBytes(unfused *graph.Network, poolName string) int64 {
	for _, li := range unfused.Layers() {
		if li.Name == poolName && li.Kind == "pool" {
			return unfused.PoolInputBytes(poolName)
		}
	}
	return 0
}

// measureInfer returns the median single-image latency.
func measureInfer(n *graph.Network, x *tensor.Tensor) time.Duration {
	return bench.Measure(*flagRuns, 100*time.Millisecond, func() { n.Infer(x) })
}
