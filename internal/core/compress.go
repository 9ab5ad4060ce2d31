package core

import (
	"fmt"

	"bitflow/internal/kernels"
)

// This file holds the kernel-compression state of the operators (Silfa
// & Arnau, "Exploiting Kernel Compression on BNNs"): operators whose
// packed weight bank repeats words across output channels carry a
// CompressPlan (built at construction, see NewConvPacked/NewDensePacked).
// The forwards take the plan as their accumulate source — nil streams
// the packed weights — so the graph layer decides per network which
// source runs while the operators stay shared read-only between
// compressed and uncompressed lanes, which is what makes the
// differential tests cheap. Both sources are bit-identical: the
// accumulators sum the same integer popcounts, and the final
// threshold/pack pass is the very same Epilogue.

// Compression returns the conv's kernel-compression plan, or nil when
// the filter bank's duplication ratio did not clear the selection
// threshold (and none was forced via SetCompression).
func (cv *Conv) Compression() *kernels.CompressPlan { return cv.press }

// CompressionStats returns the duplication analysis of the packed
// filter bank, measured at construction regardless of selection.
func (cv *Conv) CompressionStats() kernels.CompressStats { return cv.pressStats }

// SetCompression forces a kernel-compression plan (or clears it with
// nil), overriding the load-time threshold selection — a hook for
// differential tests and benchmarks that need the compressed path on
// banks below the ratio threshold. The plan must match the filter
// bank's geometry.
func (cv *Conv) SetCompression(cp *kernels.CompressPlan) error {
	if cp != nil {
		if s := cv.Shape.KH * cv.rowLen; cp.K != cv.Shape.K || cp.S != s {
			return fmt.Errorf("core: compression plan %dx%d does not match conv bank %dx%d", cp.K, cp.S, cv.Shape.K, s)
		}
	}
	cv.press = cp
	return nil
}

// Compression returns the dense operator's kernel-compression plan, or
// nil when the weight matrix's duplication ratio did not clear the
// selection threshold (and none was forced via SetCompression).
func (d *Dense) Compression() *kernels.CompressPlan { return d.press }

// CompressionStats returns the duplication analysis of the packed
// weight matrix, measured at construction regardless of selection.
func (d *Dense) CompressionStats() kernels.CompressStats { return d.pressStats }

// SetCompression forces a kernel-compression plan (or clears it with
// nil), overriding the load-time threshold selection — a hook for
// differential tests and benchmarks.
func (d *Dense) SetCompression(cp *kernels.CompressPlan) error {
	if cp != nil && (cp.K != d.Shape.K || cp.S != d.Plan.Words) {
		return fmt.Errorf("core: compression plan %dx%d does not match dense bank %dx%d", cp.K, cp.S, d.Shape.K, d.Plan.Words)
	}
	d.press = cp
	return nil
}
