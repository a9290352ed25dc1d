package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"grappolo/internal/coloring"
	"grappolo/internal/core"
	"grappolo/internal/generate"
)

// ColorSkewRow records the §6.2 color-set skew metrics for one input: the
// distribution of the base parallel coloring, then of the vertex-balanced
// and arc-balanced repairs. RSD is over per-set vertex counts, ArcRSD over
// per-set total arc counts — the metric the colored sweep's work actually
// follows (the paper blames uk-2002's poor speedup on exactly this skew:
// 943 colors, set-size RSD 18.876).
type ColorSkewRow struct {
	Input  generate.Input
	Colors int
	// Base is the unbalanced speculative coloring; Vertex and Arc are the
	// same coloring after the respective rebalancing mode.
	Base, Vertex, Arc coloring.Stats
	// AutoPicked reports what core.BalanceAuto would do on this input: "arc"
	// when the base ArcRSD exceeds core.BalanceAutoArcRSD, "off" when the
	// coloring is already balanced enough.
	AutoPicked string
}

// ColorSkew colors each input with the speculative parallel coloring and
// reports the set-load skew before and after vertex- and arc-balanced
// rebalancing. Rebalancing never increases the color count, so Colors
// applies to all three distributions.
func ColorSkew(o Options, inputs []generate.Input) ([]ColorSkewRow, error) {
	o = o.Defaults()
	var rows []ColorSkewRow
	for _, in := range inputs {
		g, err := o.Input(in)
		if err != nil {
			return nil, err
		}
		base := coloring.Parallel(g, o.Workers)
		vert := coloring.Rebalance(g, base, coloring.RebalanceOptions{
			Workers: o.Workers, By: coloring.BalanceByVertices,
		})
		arc := coloring.Rebalance(g, base, coloring.RebalanceOptions{
			Workers: o.Workers, By: coloring.BalanceByArcs,
		})
		row := ColorSkewRow{
			Input:  in,
			Colors: base.NumColors,
			Base:   base.ComputeStatsOn(g),
			Vertex: vert.ComputeStatsOn(g),
			Arc:    arc.ComputeStatsOn(g),
		}
		// Mirror core.BalanceAuto's decision.
		row.AutoPicked = "off"
		if row.Base.ArcRSD > core.BalanceAutoArcRSD {
			row.AutoPicked = "arc"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteColorSkew renders the color-skew study as text.
func WriteColorSkew(w io.Writer, rows []ColorSkewRow) {
	fmt.Fprintf(w, "Color-set skew (§6.2): base vs vertex-balanced vs arc-balanced\n")
	fmt.Fprintf(w, "%-12s %7s | %8s %8s | %8s %8s | %8s %8s | %4s\n",
		"input", "colors", "rsd", "arcrsd", "rsd", "arcrsd", "rsd", "arcrsd", "auto")
	fmt.Fprintf(w, "%-12s %7s | %17s | %17s | %17s |\n",
		"", "", "base", "vertex-balanced", "arc-balanced")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d | %8.3f %8.3f | %8.3f %8.3f | %8.3f %8.3f | %4s\n",
			r.Input, r.Colors,
			r.Base.RSD, r.Base.ArcRSD,
			r.Vertex.RSD, r.Vertex.ArcRSD,
			r.Arc.RSD, r.Arc.ArcRSD, r.AutoPicked)
	}
}

// WriteColorSkewCSV emits the color-skew study as CSV.
func WriteColorSkewCSV(w io.Writer, rows []ColorSkewRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"input", "colors",
		"base_rsd", "base_arc_rsd",
		"vertex_rsd", "vertex_arc_rsd",
		"arc_rsd", "arc_arc_rsd",
		"auto_picked",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			string(r.Input), strconv.Itoa(r.Colors),
			fmtF(r.Base.RSD), fmtF(r.Base.ArcRSD),
			fmtF(r.Vertex.RSD), fmtF(r.Vertex.ArcRSD),
			fmtF(r.Arc.RSD), fmtF(r.Arc.ArcRSD),
			r.AutoPicked,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
