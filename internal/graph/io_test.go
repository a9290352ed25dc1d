package graph

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestReadEdgeListCommentsAndWeights(t *testing.T) {
	in := `# comment
% another comment

0 1
1 2 2.5
`
	g, err := ReadEdgeList(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.EdgeCount())
	}
	if w, _ := g.EdgeWeight(1, 2); w != 2.5 {
		t.Fatalf("weight=%v", w)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("default weight=%v", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                    // too few fields
		"a b\n",                  // bad vertex
		"0 x\n",                  // bad vertex
		"0 1 zero\n",             // bad weight
		"0 1 -2\n",               // non-positive weight
		"-1 2\n",                 // negative vertex id
		"0 -2\n",                 // negative vertex id
		"0 1 NaN\n",              // non-finite weight
		"0 1 +Inf\n",             // non-finite weight
		"0 1 1e308\n0 1 1e308\n", // finite weights whose merged sum overflows
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 1); err == nil {
			t.Fatalf("input %q: want error", in)
		}
	}
}

func TestReadMETISBasic(t *testing.T) {
	// 3-vertex path 1-2-3 (1-based METIS), unweighted.
	in := `% comment
3 2
2
1 3
2
`
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.EdgeCount())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("wrong structure")
	}
}

func TestReadMETISEdgeWeights(t *testing.T) {
	in := `2 1 1
2 7
1 7
`
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 7 {
		t.Fatalf("weight=%v want 7", w)
	}
}

func TestReadMETISVertexAndEdgeWeights(t *testing.T) {
	in := `2 1 11
5 2 7
9 1 7
`
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 7 {
		t.Fatalf("weight=%v want 7 (vertex weights must be skipped)", w)
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"3\n",                   // short header
		"1 0\n2\n",              // neighbor out of range
		"1 0\nx\n",              // bad neighbor
		"1 0\n1\n1\n",           // more adjacency lines than n
		"-3 2\n",                // negative vertex count
		"4294967296 0\n",        // vertex count beyond int32 ids
		"2 1 1\n2 -3\n1 -3\n",   // negative weight
		"2 1 1\n2 0\n1 0\n",     // zero weight
		"2 1 1\n2 NaN\n1 NaN\n", // non-finite weight
		"2 1 1\n2 Inf\n1 Inf\n", // non-finite weight
		"3 2\n2\n\n\n2\n",       // a blank line is a vertex: four lines for n = 3
		"5 1\n2\n1\n",           // two adjacency lines for n = 5
		"2147483647 0\n",        // no adjacency lines: would build 2^31 - 1 vertices
	}
	for _, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in), 1); err == nil {
			t.Fatalf("input %q: want error", in)
		}
	}
}

// TestMETISRoundTrip round-trips graphs through WriteMETIS and ReadMETIS. A
// blank adjacency line is an isolated vertex: skipping it would charge
// every later line to the wrong vertex.
func TestMETISRoundTrip(t *testing.T) {
	build := func(n int, edges ...[2]int32) *Graph {
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1], 1)
		}
		return b.Build(1)
	}
	cases := map[string]*Graph{
		"triangle":        triangle(t),
		"isolated-first":  build(3, [2]int32{1, 2}),
		"isolated-middle": build(5, [2]int32{0, 1}, [2]int32{3, 4}, [2]int32{0, 4}),
		"isolated-last":   build(4, [2]int32{0, 1}, [2]int32{1, 2}),
		"all-isolated":    build(3),
	}
	for name, g := range cases {
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		g2, err := ReadMETIS(&buf, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.N() != g.N() || g2.ArcCount() != g.ArcCount() {
			t.Fatalf("%s: %q read back as n=%d arcs=%d, want n=%d arcs=%d", name, text, g2.N(), g2.ArcCount(), g.N(), g.ArcCount())
		}
		assertSameGraph(t, g, g2)
	}
	// Blank lines after the n-th adjacency line are not vertices.
	g, err := ReadMETIS(strings.NewReader("3 1 1\n\n3 1\n2 1\n\n\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || !g.HasEdge(1, 2) || g.ArcCount() != 2 {
		t.Fatalf("n=%d arcs=%d, want the single edge 1-2 on 3 vertices", g.N(), g.ArcCount())
	}
}

func TestMETISRoundTripWeighted(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(1, 2, 0.125)
	b.AddEdge(2, 3, 7)
	g := b.Build(1)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 24)), 1); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(nil), 1); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	g := triangle(t)

	elPath := filepath.Join(dir, "g.txt")
	var el bytes.Buffer
	if err := WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(elPath, el.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "g.bin")
	var bb bytes.Buffer
	if err := WriteBinary(&bb, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	metisPath := filepath.Join(dir, "g.graph")
	if err := os.WriteFile(metisPath, []byte("3 2\n2\n1 3\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{elPath, binPath} {
		got, err := LoadFile(path, 2)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertSameGraph(t, g, got)
	}
	gm, err := LoadFile(metisPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gm.N() != 3 || gm.EdgeCount() != 2 {
		t.Fatal("metis load wrong")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.txt"), 1); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	// 5 isolated
	g := b.Build(2)
	label, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("count=%d want 3", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("component 0 mislabeled")
	}
	if label[3] != label[4] || label[3] == label[0] {
		t.Fatal("component 1 mislabeled")
	}
	if label[5] == label[0] || label[5] == label[3] {
		t.Fatal("isolated vertex mislabeled")
	}
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.ArcCount() != b.ArcCount() {
		t.Fatalf("shape differs: n %d/%d arcs %d/%d", a.N(), b.N(), a.ArcCount(), b.ArcCount())
	}
	if math.Abs(a.TotalWeight()-b.TotalWeight()) > 1e-9 {
		t.Fatalf("total weight differs: %v vs %v", a.TotalWeight(), b.TotalWeight())
	}
	for i := 0; i < a.N(); i++ {
		na, wa := a.Neighbors(i)
		nb, wb := b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d row length differs", i)
		}
		for k := range na {
			if na[k] != nb[k] || math.Abs(wa[k]-wb[k]) > 1e-9 {
				t.Fatalf("vertex %d entry %d differs: (%d,%v) vs (%d,%v)", i, k, na[k], wa[k], nb[k], wb[k])
			}
		}
	}
}
