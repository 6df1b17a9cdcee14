//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved" // the runs of one side spread wider than the bound
)

// judge compares a change's median against the base's for one metric. A
// row whose quartile spread on either side exceeds the bound cannot tell a
// regression from noise and is unresolved, not unchanged.
func judge(d metricDef, base, change summary) string {
	bound := math.Max(d.Bound*math.Abs(base.Median), d.AbsBound)
	if base.Q3-base.Q1 > bound || change.Q3-change.Q1 > bound {
		return verdictUnresolved
	}
	gain := change.Median - base.Median
	if d.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return verdictWorse
	case gain > bound:
		return verdictBetter
	}
	return verdictWithin
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := &ledger{}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// compareLedgers prints one row per (metric, workload). Every ratio is
// printed with its base, and no combined score is formed.
func compareLedgers(w io.Writer, basePath, changePath string) error {
	base, err := readLedger(basePath)
	if err != nil {
		return err
	}
	change, err := readLedger(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase (%s)\tchange (%s)\tchange/base\tas the clocks read\tbase spread\tchange spread\tbound\tverdict\n", basePath, changePath)
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base.Workloads[name], change.Workloads[name]
		if c == nil || b.Invalid != "" || c.Invalid != "" {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\tno numbers on one side\n", name)
			continue
		}
		for _, d := range base.Metrics {
			bs, cs := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			rel := "n/a (base is 0)"
			if bs.Median != 0 {
				rel = fmt.Sprintf("%.3f", cs.Median/bs.Median)
			}
			// The same ratio before the machine-speed correction, for metrics
			// that have one: when the two disagree, the machine or the
			// generator's own cost moved between the two ledgers.
			raw := "-"
			if bv, ok := b.Raw.value(d.Name); ok && bv != 0 {
				cv, _ := c.Raw.value(d.Name)
				raw = fmt.Sprintf("%.3f", cv/bv)
			}
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.Bound == 0 {
				bound = fmt.Sprintf("%g %s", d.AbsBound, d.Unit)
			} else if d.AbsBound > 0 {
				bound = fmt.Sprintf("max(%s, %g %s)", bound, d.AbsBound, d.Unit)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%s\t%s\t%.1f%%\t%.1f%%\t%s\t%s\n", name, d.Name,
				bs.Median, d.Unit, cs.Median, d.Unit, rel, raw, pct(bs), pct(cs), bound, judge(d, bs, cs))
		}
	}
	return tw.Flush()
}

// pct is a summary's spread in percent; a zero median has none.
func pct(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return 100 * (s.Q3 - s.Q1) / math.Abs(s.Median)
}
