package bigio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The BCSR v2 bytes themselves are pinned, not only the agreement of the
// two writers: a daemon data dir, a benchmark input and every file users
// converted hold these bytes, so a change to the layout, the padding or
// the converter's sort must not move one of them. Both digests were
// recorded before the compressed variant and the comparison sort left the
// package.

// TestWriteDigest pins Write's output for a fixed R-MAT LCC.
func TestWriteDigest(t *testing.T) {
	g, _ := graph.LargestComponent(gen.RMAT(gen.Graph500(11, 8, 1)))
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	const want = "sha256:ecfc45ed48a59916c4b6efe24ee32c3ac6b206844e8c53fbe5d36ee14e6eee51"
	if got := digest(buf.Bytes()); got != want {
		t.Errorf("Write digest = %s, want %s", got, want)
	}
}

// TestConverterDigest pins the Converter's file for a StreamRMAT stream
// at a sort buffer of 512 entries and a fan-in of 4, so the 32 spilled
// runs merge in two intermediate passes before the final one.
func TestConverterDigest(t *testing.T) {
	const scale = 10
	out := filepath.Join(t.TempDir(), "rmat.bcsr")
	c, err := NewConverter(out, ConvertOptions{MemBytes: 4 << 10, NumNodes: 1 << scale, MaxFanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := gen.StreamRMAT(gen.Graph500(scale, 8, 3), c.AddEdge); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MergePasses < 2 {
		t.Fatalf("%d runs merged in %d passes, want at least 2", stats.Runs, stats.MergePasses)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sha256:f3cac87838f6061a21a23f415f24dbfadc48f418bab01dca9ed9291038260163"
	if got := digest(data); got != want {
		t.Errorf("Converter digest = %s, want %s", got, want)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}
