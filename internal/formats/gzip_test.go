package formats

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
)

func TestReadFileGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write([]byte("a,b\nb,a\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Errorf("gzip graph N=%d M=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestReadFileGzipSniffed(t *testing.T) {
	// .gz with no inner extension: content sniffing applies after
	// decompression.
	dir := t.TempDir()
	path := filepath.Join(dir, "data.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	zw.Write([]byte("*Vertices 2\n*Arcs\n1 2\n"))
	zw.Close()
	f.Close()

	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Errorf("sniffed gzip N=%d", g.NumNodes())
	}
}

func TestReadFileCorruptGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csv.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("corrupt gzip accepted")
	}
}
