package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Failure-injection tests: corrupt serialized graphs must fail loudly, not
// produce silently wrong structures.

func TestBinaryTruncatedAtEveryBoundary(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate at a spread of offsets including each header/array boundary.
	cuts := []int{0, 7, 8, 16, 23, 24, 40, len(full) / 2, len(full) - 1}
	for _, cut := range cuts {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(full[:cut]), 1); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	// The intact stream still loads.
	if _, err := ReadBinary(bytes.NewReader(full), 1); err != nil {
		t.Fatalf("intact stream rejected: %v", err)
	}
}

func TestBinaryCorruptedCountsRejected(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// Inflate the arc count field (bytes 16..24) so array reads overrun.
	data[16] = 0xff
	if _, err := ReadBinary(bytes.NewReader(data), 1); err == nil {
		t.Fatal("corrupted arc count accepted")
	}
}

func TestBinaryCorruptedAdjacencyCaughtByValidate(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// Flip a byte inside the adjacency region: offsets are
	// 24 (header) + 8*(n+1) = 24+32 = 56; adjacency starts at 56.
	data[56] ^= 0x7f
	if _, err := ReadBinary(bytes.NewReader(data), 1); err == nil {
		t.Fatal("corrupted adjacency accepted (Validate should reject)")
	}
}

// TestBinaryLyingHeaderRejected pins that header counts are bounded by the
// bytes behind them: a vertex count past int32 ids is refused outright, and
// an oversized count fails at EOF instead of allocating what it claims.
// Offsets that do not index the adjacency are an error, not a panic.
func TestBinaryLyingHeaderRejected(t *testing.T) {
	header := func(n, arcs uint64, rest ...int64) []byte {
		var buf bytes.Buffer
		binary.Write(&buf, binary.LittleEndian, []uint64{binMagic, n, arcs})
		binary.Write(&buf, binary.LittleEndian, rest)
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"n-1<<62":          header(1<<62, 0),
		"n-past-int32":     header(1<<31, 0),
		"n-1<<30-no-data":  header(1<<30, 0),
		"arcs-1<<40":       header(1, 1<<40, 0, 1),
		"offsets-overrun":  append(header(1, 1, 0, 5), make([]byte, 12)...),
		"offsets-decrease": append(header(2, 1, 0, 1, 0), make([]byte, 12)...),
		"offsets-nonzero":  append(header(1, 1, 1, 1), make([]byte, 12)...),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data), 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
