package graph

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// FuzzReadGraph feeds arbitrary bytes to all three file readers. Each must
// return an error or a graph that passes Validate and has a finite total
// weight: never a panic, a hang or a graph no detection can score.
func FuzzReadGraph(f *testing.F) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(1, 1, 1)
	b.AddEdge(3, 4, 0.125)
	g := b.Build(1)
	for _, write := range []func(*bytes.Buffer, *Graph) error{
		func(w *bytes.Buffer, g *Graph) error { return WriteEdgeList(w, g) },
		func(w *bytes.Buffer, g *Graph) error { return WriteMETIS(w, g) },
		func(w *bytes.Buffer, g *Graph) error { return WriteBinary(w, g) },
	} {
		var buf bytes.Buffer
		if err := write(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		"-1 2\n", "0 1 NaN\n", "0 1 +Inf\n", "0 1 1e308\n0 1 1e308\n",
		"3 1 1\n\n3 1\n2 1\n", "2 1 1\n2 -3\n1 -3\n", "-3 2\n", "% c\n2 1 11\n5 2 7\n9 1 7\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(format string, g *Graph, err error) {
			if err != nil {
				return
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: loaded an invalid graph: %v", format, err)
			}
			if w := g.TotalWeight(); math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("%s: loaded a graph of total weight %v", format, w)
			}
		}
		g, err := ReadBinary(bytes.NewReader(data), 1)
		check("binary", g, err)
		// A METIS graph has at most one vertex per line of input.
		g, err = ReadMETIS(bytes.NewReader(data), 1)
		check("METIS", g, err)
		// An edge list's size is the largest id it names, not its byte
		// length: skip inputs naming big graphs, whose memory is real.
		for _, field := range bytes.Fields(data) {
			if v, err := strconv.ParseInt(string(field), 10, 64); err == nil && v > 1<<16 {
				return
			}
		}
		g, err = ReadEdgeList(bytes.NewReader(data), 1)
		check("edge list", g, err)
	})
}
