// The `ops` subcommand's third report benchmarks kernel compression
// (Silfa & Arnau): at model load the packed filter banks are analyzed for
// repeated 64-bit words, and layers whose duplication ratio clears
// kernels.CompressMinRatio run a compressed forward that computes each
// distinct word's XOR+popcount once and scatter-adds the partial sums to
// every duplicate channel. This file times both plans on identical
// inputs, emitting BENCH_compress.json:
//
//   - a high-duplication network (4 base filter patterns per conv bank,
//     the weight regularity trained BNNs exhibit) where the pass selects
//     the compressed path: per-layer and end-to-end compressed vs
//     uncompressed wall clock;
//   - a low-duplication network (random banks, ratio ≈ 1) where the
//     threshold declines every layer — the fallback row pins that no
//     layer runs compressed, so low-duplication models cannot regress.
//
// Logits are checked bit-identical between the two plans before any
// timing is reported, so a speedup can never come from a divergent
// computation.
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
	"bitflow/internal/kernels"
	"bitflow/internal/sched"
	"bitflow/internal/tensor"
	"bitflow/internal/workload"
)

var flagCompressOut = flag.String("compress-out", "BENCH_compress.json", "output path for the `ops` subcommand's kernel-compression report")

type compressLayerRow struct {
	Network string `json:"network"`
	Layer   string `json:"layer"`
	Kind    string `json:"kind"`
	// The duplication analysis the planner acted on.
	Channels      int     `json:"channels"`
	Positions     int     `json:"positions"`
	TotalWords    int     `json:"total_words"`
	DistinctWords int     `json:"distinct_words"`
	Ratio         float64 `json:"ratio"`
	Selected      bool    `json:"selected"`
	// Node wall clock under each plan (median of -runs); zero when the
	// layer was not selected (both plans run the same kernels).
	UncompressedMs float64 `json:"uncompressed_ms,omitempty"`
	CompressedMs   float64 `json:"compressed_ms,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
}

type compressNetRow struct {
	Network          string  `json:"network"`
	CompressedLayers int     `json:"compressed_layers"`
	OutputsIdentical bool    `json:"outputs_identical"`
	CompressedIPS    float64 `json:"compressed_images_per_sec"`
	UncompressedIPS  float64 `json:"uncompressed_images_per_sec"`
	Speedup          float64 `json:"speedup"`
	// Fallback is true when the threshold declined every layer: the
	// "compressed" plan is then byte-for-byte the uncompressed one.
	Fallback bool `json:"fallback"`
}

type compressReport struct {
	Features  string             `json:"features"`
	Cores     int                `json:"cores"`
	Threshold float64            `json:"threshold_ratio"`
	Layers    []compressLayerRow `json:"layers"`
	Networks  []compressNetRow   `json:"networks"`
}

// compressDupWeights repeats one of four base filter patterns per output
// channel of every conv bank — the duplication profile that makes the
// load-time pass select the compressed path.
type compressDupWeights struct {
	graph.RandomWeights
}

func (d compressDupWeights) ConvFilter(name string, k, kh, kw, c int) (*tensor.Filter, error) {
	f, err := d.RandomWeights.ConvFilter(name, k, kh, kw, c)
	if err == nil {
		per := kh * kw * c
		for i := 4; i < k; i++ {
			copy(f.Data[i*per:(i+1)*per], f.Data[(i%4)*per:(i%4+1)*per])
		}
	}
	return f, err
}

// compressBenchNet is a conv-heavy net sized so the conv banks dominate
// the pass: wide binary input, two 3×3 convs (the first fusing with its
// pool), and a small classifier head.
func compressBenchNet(feat sched.Features, ws graph.WeightSource, channels int) (*graph.Network, error) {
	return graph.NewBuilder("CompressBench", 16, 16, channels, feat).
		Conv3x3("c1", channels).
		Pool("p1", 2, 2, 2).
		Conv3x3("c2", channels).
		Pool("p2", 2, 2, 2).
		Dense("fc", 10).
		Build(ws)
}

func runCompressBench(feat sched.Features) error {
	channels := 256
	if *flagQuick {
		channels = 128
	}
	cases := []struct {
		name string
		ws   graph.WeightSource
	}{
		{"HighDup", compressDupWeights{RandomWeights: graph.RandomWeights{Seed: *flagSeed}}},
		{"LowDup", graph.RandomWeights{Seed: *flagSeed}},
	}

	rep := compressReport{
		Features:  fmt.Sprint(feat),
		Cores:     bench.PhysicalCores(),
		Threshold: kernels.CompressMinRatio,
	}
	threads := bench.PhysicalCores()

	for _, c := range cases {
		pressed, err := compressBenchNet(feat, c.ws, channels)
		if err != nil {
			return err
		}
		pressed.SetExec(exec.Threads(threads))
		plain := pressed.CloneUncompressed()

		x := workload.RandTensor(workload.NewRNG(*flagSeed+13), pressed.InH, pressed.InW, pressed.InC)
		if err := checkPlansAgree(pressed, plain, x); err != nil {
			return fmt.Errorf("%s: compressed vs uncompressed: %w", c.name, err)
		}

		fmt.Printf("== %s: compressed vs uncompressed per layer (threshold ratio ≥ %.1f) ==\n",
			c.name, kernels.CompressMinRatio)
		_, pressedT := medianTimings(pressed, x)
		_, plainT := medianTimings(plain, x)
		t := bench.NewTable("layer", "ratio", "selected", "uncompressed", "compressed", "speedup")
		for _, lc := range pressed.Compression() {
			row := compressLayerRow{
				Network: c.name, Layer: lc.Layer, Kind: lc.Kind,
				Channels: lc.Channels, Positions: lc.Positions,
				TotalWords: lc.TotalWords, DistinctWords: lc.DistinctWords,
				Ratio: round2(lc.Ratio), Selected: lc.Selected,
			}
			sel := "no"
			speedup := "-"
			if lc.Selected {
				sel = "yes"
				row.CompressedMs = round2(float64(pressedT[lc.Layer]) / float64(time.Millisecond))
				row.UncompressedMs = round2(float64(plainT[lc.Layer]) / float64(time.Millisecond))
				if pressedT[lc.Layer] > 0 {
					row.Speedup = round2(float64(plainT[lc.Layer]) / float64(pressedT[lc.Layer]))
				}
				speedup = fmt.Sprintf("%.2fx", row.Speedup)
			}
			rep.Layers = append(rep.Layers, row)
			t.Row(lc.Layer, fmt.Sprintf("%.2f", lc.Ratio), sel,
				bench.Ms(plainT[lc.Layer]), bench.Ms(pressedT[lc.Layer]), speedup)
		}
		t.Render(os.Stdout)

		pd := measureInfer(pressed, x)
		ud := measureInfer(plain, x)
		nr := compressNetRow{
			Network:          c.name,
			CompressedLayers: pressed.CompressedLayers(),
			OutputsIdentical: true, // checkPlansAgree already gated the run
			CompressedIPS:    round2(float64(time.Second) / float64(pd)),
			UncompressedIPS:  round2(float64(time.Second) / float64(ud)),
			Speedup:          round2(float64(ud) / float64(pd)),
			Fallback:         pressed.CompressedLayers() == 0,
		}
		rep.Networks = append(rep.Networks, nr)
		if nr.Fallback {
			fmt.Printf("end-to-end: every layer below threshold — compressed plan falls back to the streaming kernels (%.2f img/s)\n\n",
				nr.CompressedIPS)
		} else {
			fmt.Printf("end-to-end: compressed %.2f img/s, uncompressed %.2f img/s (%.2fx), %d layer(s) compressed\n\n",
				nr.CompressedIPS, nr.UncompressedIPS, nr.Speedup, nr.CompressedLayers)
		}
	}

	f, err := os.Create(*flagCompressOut)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *flagCompressOut)
	return nil
}
