package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list: one "u v [w]" per
// line, 0-based vertex ids, '#' or '%' comment lines ignored. Lines with a
// third field use it as the weight; otherwise weight 1 (paper §2). A
// negative id, a weight that is not a positive finite number, or edges
// whose total weight overflows are errors.
func ReadEdgeList(r io.Reader, p int) (*Graph, error) {
	b := &Builder{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id in %q", lineNo, line)
		}
		w := 1.0
		if len(fields) >= 3 {
			if w, err = parseWeight(fields[2]); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		}
		b.AddEdge(int32(u), int32(v), w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return finiteTotal(b.Build(p))
}

// parseWeight parses an edge weight, which must be a positive finite number.
func parseWeight(field string) (float64, error) {
	w, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("bad weight %q: %w", field, err)
	}
	if !(w > 0) || math.IsInf(w, 1) {
		return 0, fmt.Errorf("weight %v is not a positive finite number", w)
	}
	return w, nil
}

// finiteTotal returns g, or an error when its total weight is not finite:
// finite weights can still overflow when summed, and no detection run can
// score such a graph.
func finiteTotal(g *Graph) (*Graph, error) {
	if w := g.TotalWeight(); math.IsNaN(w) || math.IsInf(w, 0) {
		return nil, fmt.Errorf("graph: total edge weight %v is not finite", w)
	}
	return g, nil
}

// WriteEdgeList writes the graph as "u v w" lines, emitting each undirected
// edge once (u <= v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < g.N(); i++ {
		nbr, wt := g.Neighbors(i)
		for t, j := range nbr {
			if int(j) >= i {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", i, j, wt[t]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadMETIS parses the METIS/DIMACS10 graph format used by the paper's
// input suite: a header "n m [fmt]" followed by n adjacency lines of
// 1-based neighbor ids, optionally interleaved with weights when fmt
// includes edge weights (fmt "1" or "11"; vertex weights are skipped). A
// blank adjacency line is an isolated vertex; blank lines after the n-th
// are ignored, and a file with fewer than n adjacency lines is an error, so
// a graph's size is bounded by its line count. Edge weights follow
// ReadEdgeList's rule.
func ReadMETIS(r io.Reader, p int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int
	var hasEdgeW, hasVertexW bool
	headerRead := false
	b := &Builder{}
	vertex := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && line[0] == '%' {
			continue
		}
		if line == "" && (!headerRead || vertex >= n) {
			continue
		}
		fields := strings.Fields(line)
		if !headerRead {
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: METIS header needs at least n and m")
			}
			nv, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS header n: %w", err)
			}
			if nv < 0 || nv > math.MaxInt32 {
				return nil, fmt.Errorf("graph: METIS header n = %d outside [0, %d]", nv, math.MaxInt32)
			}
			n = nv
			if len(fields) >= 3 {
				code := fields[2]
				hasEdgeW = strings.HasSuffix(code, "1")
				hasVertexW = len(code) >= 2 && code[len(code)-2] == '1'
			}
			b.Grow(n)
			headerRead = true
			continue
		}
		if vertex >= n {
			return nil, fmt.Errorf("graph: METIS file has more than %d adjacency lines", n)
		}
		idx := 0
		if hasVertexW {
			idx = 1 // skip vertex weight
		}
		step := 1
		if hasEdgeW {
			step = 2
		}
		for ; idx < len(fields); idx += step {
			j, err := strconv.Atoi(fields[idx])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS vertex %d: bad neighbor %q: %w", vertex+1, fields[idx], err)
			}
			if j < 1 || j > n {
				return nil, fmt.Errorf("graph: METIS vertex %d: neighbor %d out of range", vertex+1, j)
			}
			w := 1.0
			if hasEdgeW {
				if idx+1 >= len(fields) {
					return nil, fmt.Errorf("graph: METIS vertex %d: missing weight", vertex+1)
				}
				if w, err = parseWeight(fields[idx+1]); err != nil {
					return nil, fmt.Errorf("graph: METIS vertex %d: %w", vertex+1, err)
				}
			}
			// Each undirected edge appears in both adjacency lines; keep the
			// orientation u <= v once to avoid doubling weights on merge.
			if u := vertex; u <= j-1 {
				b.AddEdge(int32(u), int32(j-1), w)
			}
		}
		vertex++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning METIS: %w", err)
	}
	if !headerRead {
		return nil, fmt.Errorf("graph: empty METIS input")
	}
	if vertex < n {
		return nil, fmt.Errorf("graph: METIS header names %d vertices but the file has %d adjacency lines", n, vertex)
	}
	return finiteTotal(b.Build(p))
}

// WriteMETIS writes the graph in METIS/DIMACS10 format with edge weights
// (header fmt code "1"): n m 1, followed by one adjacency line per vertex
// with 1-based "neighbor weight" pairs. Self-loops are emitted on their
// owner's line once, which METIS tools tolerate and ReadMETIS round-trips.
// Non-integer weights are written with full precision.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d 1\n", g.N(), g.EdgeCount()); err != nil {
		return err
	}
	for i := 0; i < g.N(); i++ {
		nbr, wts := g.Neighbors(i)
		for t, j := range nbr {
			if t > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d %g", j+1, wts[t]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

const binMagic = uint64(0x47524150504f4c4f) // "GRAPPOLO"

// WriteBinary serializes the graph in a compact little-endian binary format
// (magic, n, arc count, offsets, adj, weights).
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binMagic, uint64(g.N()), uint64(len(g.adj))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.weights); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. The arrays are
// read in bounded chunks, so a header that claims more data than the input
// holds fails with an EOF error before any large allocation.
func ReadBinary(r io.Reader, p int) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic, n, arcs uint64
	for _, dst := range []*uint64{&magic, &n, &arcs} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("graph: binary header: %w", err)
		}
	}
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: binary header n = %d exceeds %d", n, math.MaxInt32)
	}
	offsets, err := readChunked[int64](br, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: binary offsets: %w", err)
	}
	adj, err := readChunked[int32](br, arcs)
	if err != nil {
		return nil, fmt.Errorf("graph: binary adjacency: %w", err)
	}
	weights, err := readChunked[float64](br, arcs)
	if err != nil {
		return nil, fmt.Errorf("graph: binary weights: %w", err)
	}
	g, err := FromCSR(offsets, adj, weights, p, true)
	if err != nil {
		return nil, err
	}
	return finiteTotal(g)
}

// readChunked reads count little-endian values, growing the slice one
// bounded chunk at a time: memory tracks the bytes actually read, not the
// count a header claims.
func readChunked[T int32 | int64 | float64](r io.Reader, count uint64) ([]T, error) {
	const chunk = 1 << 16
	var out []T
	for uint64(len(out)) < count {
		k := int(min(count-uint64(len(out)), chunk))
		out = slices.Grow(out, k)
		if err := binary.Read(r, binary.LittleEndian, out[len(out):len(out)+k]); err != nil {
			return nil, err
		}
		out = out[:len(out)+k]
	}
	return out, nil
}

// LoadFile reads a graph from path, dispatching on extension: ".graph" or
// ".metis" → METIS, ".bin" → binary, anything else → edge list.
func LoadFile(path string, p int) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".graph") || strings.HasSuffix(path, ".metis"):
		return ReadMETIS(f, p)
	case strings.HasSuffix(path, ".bin"):
		return ReadBinary(f, p)
	default:
		return ReadEdgeList(f, p)
	}
}
