package main

import (
	"encoding/json"
	"fmt"
	"math"

	"bitflow/internal/graph"
	"bitflow/internal/serve"
	"bitflow/internal/tensor"
)

// referenceLogits runs every input through the differential oracle: an
// uncompressed clone of the network built in memory, before it was
// saved and loaded back. So a fault in serialization, in the load-time
// compression plan or in any served path shows as a mismatch.
func referenceLogits(built *graph.Network, inputs []*tensor.Tensor) ([][]float32, error) {
	ref := built.CloneUncompressed()
	out := make([][]float32, len(inputs))
	for i, x := range inputs {
		logits, err := ref.InferChecked(x)
		if err != nil {
			return nil, fmt.Errorf("reference input %d: %w", i, err)
		}
		out[i] = logits
	}
	return out, nil
}

// sameLogits reports whether got equals want bit for bit.
func sameLogits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}

// responseMatches decodes a 200 body and compares its logits with the
// reference. JSON carries float32 in shortest round-trip form, so the
// comparison is exact.
func responseMatches(body []byte, want []float32) bool {
	var resp serve.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	return sameLogits(resp.Logits, want)
}

// checkOutcomes marks every 200 whose logits differ from the reference
// as wrong and returns how many were.
func checkOutcomes(outs []outcome, refs [][]float32) int {
	wrong := 0
	for i := range outs {
		o := &outs[i]
		if o.Status == 200 && !responseMatches(o.Body, refs[o.Input]) {
			o.Wrong = true
			wrong++
		}
		o.Body = nil
	}
	return wrong
}
