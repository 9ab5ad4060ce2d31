package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare is the paired-comparison mode. It reads the end-to-end
// records of a parent's runs and a change's runs, made in alternating
// order, pairs them in run order, and prints per workload and metric
// each side's median and quartiles, the ratio with its base, the share
// of pairs the change won, and a verdict.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "directory holding the parent's records")
	change := fs.String("change", "", "directory holding the change's records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *change == "" {
		return fmt.Errorf("both --base and --change are required")
	}
	def, err := loadDefinition()
	if err != nil {
		return err
	}
	b, err := readRecords(*base)
	if err != nil {
		return err
	}
	c, err := readRecords(*change)
	if err != nil {
		return err
	}
	return writeComparison(os.Stdout, def, b, c)
}

// readRecords loads every end-to-end record under dir, grouped by
// workload and sorted by start time.
func readRecords(dir string) (map[string][]record, error) {
	out := map[string][]record{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec record
		if json.Unmarshal(b, &rec) != nil || rec.Env.Workload == "" || rec.Env.Traced {
			return nil // not an end-to-end record
		}
		out[rec.Env.Workload] = append(out[rec.Env.Workload], rec)
		return nil
	})
	for _, recs := range out {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Env.Started < recs[j].Env.Started })
	}
	return out, err
}

// comparison is one metric on one workload, parent against change.
type comparison struct {
	base, change []float64
	higher       bool
	bound        float64
}

// verdict applies the rules of a paired comparison: a gain needs the
// change to win at least nine tenths of the pairs and the medians to
// differ by more than the parent's own spread; a metric whose spread is
// wider than its bound is unresolved unless every change run beats every
// parent run; otherwise it is worse when the change's median is worse
// by more than the bound.
func (c comparison) verdict() string {
	_, bm, _ := quartiles(c.base)
	_, cm, _ := quartiles(c.change)
	spread := c.spread()
	gain := c.relGain(bm, cm)
	switch {
	case c.dominates():
		return "better"
	case spread > c.bound:
		return "unresolved"
	case c.wonShare() >= 0.9 && gain > spread:
		return "better"
	case -gain > c.bound:
		return "worse"
	default:
		return "within bound"
	}
}

// spread is the parent's interquartile range as a share of its median.
func (c comparison) spread() float64 {
	q1, m, q3 := quartiles(c.base)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// relGain is how much better cm is than bm, as a share of bm: positive
// when the change is better in the metric's direction.
func (c comparison) relGain(bm, cm float64) float64 {
	if bm == 0 {
		return 0
	}
	g := (cm - bm) / math.Abs(bm)
	if !c.higher {
		g = -g
	}
	return g
}

// wonShare is the share of pairs (parent run i, change run i) the change
// won; ties count for neither side.
func (c comparison) wonShare() float64 {
	n := min(len(c.base), len(c.change))
	if n == 0 {
		return 0
	}
	won := 0
	for i := 0; i < n; i++ {
		if c.better(c.change[i], c.base[i]) {
			won++
		}
	}
	return float64(won) / float64(n)
}

// dominates reports whether every change run beats every parent run.
func (c comparison) dominates() bool {
	if len(c.base) == 0 || len(c.change) == 0 {
		return false
	}
	for _, x := range c.change {
		for _, y := range c.base {
			if !c.better(x, y) {
				return false
			}
		}
	}
	return true
}

func (c comparison) better(x, y float64) bool {
	if c.higher {
		return x > y
	}
	return x < y
}

func writeComparison(w io.Writer, def *definition, base, change map[string][]record) error {
	var names []string
	for wl := range base {
		if _, ok := change[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has records on both sides")
	}
	sort.Strings(names)
	for _, wl := range names {
		fmt.Fprintf(w, "%s: %d parent runs, %d change runs\n", wl, len(base[wl]), len(change[wl]))
		fmt.Fprintf(w, "  %-22s %-30s %-30s %-18s %-6s %-7s %s\n",
			"metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio (base)", "won", "spread", "verdict")
		for _, d := range def.EndToEnd {
			c := comparison{
				base:   values(base[wl], d.Name),
				change: values(change[wl], d.Name),
				higher: d.Better == "higher",
				bound:  d.Bound,
			}
			if len(c.base) == 0 || len(c.change) == 0 {
				continue
			}
			bq1, bm, bq3 := quartiles(c.base)
			cq1, cm, cq3 := quartiles(c.change)
			fmt.Fprintf(w, "  %-22s %-30s %-30s %-18s %-6s %-7s %s\n", d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", bm, bq1, bq3, d.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", cm, cq1, cq3, d.Unit),
				fmt.Sprintf("%.3fx (%.4g)", cm/bm, bm),
				fmt.Sprintf("%.0f%%", 100*c.wonShare()),
				fmt.Sprintf("%.3f", c.spread()),
				fmt.Sprintf("%s (bound %.2f)", c.verdict(), d.Bound))
		}
	}
	return nil
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
