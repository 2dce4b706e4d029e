package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valentine"
)

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

// writeLake fabricates a small CSV data lake: two fragments joinable with
// the query plus one unrelated table.
func writeLake(t *testing.T) (dir, queryPath string) {
	t.Helper()
	dir = t.TempDir()
	src := valentine.TPCDI(valentine.DatasetOptions{Rows: 80, Seed: 5})
	pair, err := valentine.NewFabricator(7).Joinable(src, 0.6, 0.9, false)
	if err != nil {
		t.Fatal(err)
	}
	queryPath = filepath.Join(dir, "query.csv")
	if err := pair.Source.WriteCSVFile(queryPath); err != nil {
		t.Fatal(err)
	}
	if err := pair.Target.WriteCSVFile(filepath.Join(dir, "crm_extract.csv")); err != nil {
		t.Fatal(err)
	}
	other := valentine.ChEMBL(valentine.DatasetOptions{Rows: 80, Seed: 5})
	if err := other.WriteCSVFile(filepath.Join(dir, "assay.csv")); err != nil {
		t.Fatal(err)
	}
	return dir, queryPath
}

func TestIndexSearchDiscoverEndToEnd(t *testing.T) {
	dir, queryPath := writeLake(t)
	idxPath := filepath.Join(t.TempDir(), "lake.idx")

	out := captureStdout(t, func() error {
		return cmdIndex([]string{"-dir", dir, "-out", idxPath})
	})
	if !strings.Contains(out, "indexed 3 tables") {
		t.Errorf("index output: %s", out)
	}

	out = captureStdout(t, func() error {
		return cmdSearch([]string{"-index", idxPath, "-query", queryPath, "-mode", "join", "-top", "5"})
	})
	if !strings.Contains(out, "crm_extract") {
		t.Errorf("search should surface the joinable fragment:\n%s", out)
	}
	// The joinable fragment must outrank the unrelated table.
	if crm, assay := strings.Index(out, "crm_extract"), strings.Index(out, "assay"); assay >= 0 && assay < crm {
		t.Errorf("ranking wrong:\n%s", out)
	}

	out = captureStdout(t, func() error {
		return cmdDiscover([]string{"-query", queryPath, "-dir", dir, "-mode", "join",
			"-method", valentine.MethodLSH, "-top", "5"})
	})
	if !strings.Contains(out, "crm_extract.csv") {
		t.Errorf("discover should surface the joinable fragment:\n%s", out)
	}
	if strings.Contains(out, "query.csv") {
		t.Errorf("discover must skip the query file:\n%s", out)
	}
}

// TestDiscoverUnionScoresValueDisjointTables: a schema-identical table with
// disjoint values (last year's export) never collides in the value-overlap
// index, so union mode must score the whole corpus rather than prune.
func TestDiscoverUnionScoresValueDisjointTables(t *testing.T) {
	dir := t.TempDir()
	queryPath := filepath.Join(dir, "customers_2024.csv")
	if err := os.WriteFile(queryPath,
		[]byte("customer_id,city\nc1,amsterdam\nc2,delft\nc3,leiden\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "archive_2023.csv"),
		[]byte("customer_id,city\nx9,utrecht\nx8,breda\nx7,zwolle\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdDiscover([]string{"-query", queryPath, "-dir", dir, "-mode", "union",
			"-method", valentine.MethodComaSchema, "-top", "5"})
	})
	var archiveLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "archive_2023.csv") {
			archiveLine = line
		}
	}
	if archiveLine == "" || strings.Contains(archiveLine, " 0.000") {
		t.Errorf("schema-identical table should score despite disjoint values:\n%s", out)
	}
}

// TestIndexWritesSnapshotDirectory: `valentine index` writes a snapshot
// directory of v2 columnar segment files (no gob segments, no flat file),
// -append upserts into it, and search answers from it. A plain file at -out
// is refused, not overwritten.
func TestIndexWritesSnapshotDirectory(t *testing.T) {
	dir, queryPath := writeLake(t)
	// Pad the lake past the default seal threshold (16 tables) so the
	// snapshot holds sealed segment files as well as the memtable.
	for i := 0; i < 16; i++ {
		csv := fmt.Sprintf("fill_%02d_k,fill_%02d_v\nf%d-1,f%d-a\nf%d-2,f%d-b\n", i, i, i, i, i, i)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("fill_%02d.csv", i)), []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	idx := filepath.Join(t.TempDir(), "lake.idx")
	out := captureStdout(t, func() error {
		return cmdIndex([]string{"-dir", dir, "-out", idx})
	})
	if !strings.Contains(out, "indexed 19 tables") {
		t.Errorf("index output: %s", out)
	}
	if m, _ := filepath.Glob(filepath.Join(idx, "seg-*.seg")); len(m) == 0 {
		t.Error("index wrote no columnar segment files")
	}
	if m, _ := filepath.Glob(filepath.Join(idx, "*.gob")); len(m) != 1 || filepath.Base(m[0]) != "MANIFEST.gob" {
		t.Errorf("gob files in the snapshot = %v, want only the manifest", m)
	}
	search := func() string {
		return captureStdout(t, func() error {
			return cmdSearch([]string{"-index", idx, "-query", queryPath, "-mode", "join", "-top", "5"})
		})
	}
	before := search()
	if !strings.Contains(before, "crm_extract") {
		t.Errorf("search lost the joinable fragment:\n%s", before)
	}

	extra := filepath.Join(dir, "extra.csv")
	if err := os.WriteFile(extra, []byte("zz_id,zz_v\n1,a\n2,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() error {
		return cmdIndex([]string{"-dir", dir, "-out", idx, "-append"})
	})
	if !strings.Contains(out, "appended 20 tables") {
		t.Errorf("append output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(idx, "MANIFEST.gob")); err != nil {
		t.Errorf("append left no snapshot manifest: %v", err)
	}
	// The appended table is searchable, and the original ranking survives.
	after := search()
	if !strings.Contains(after, "extra") || !strings.Contains(after, strings.Split(before, "\n")[1]) {
		t.Errorf("search after append:\n%s\nbefore append:\n%s", after, before)
	}

	flat := filepath.Join(t.TempDir(), "old.idx")
	if err := os.WriteFile(flat, []byte("single-file index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdIndex([]string{"-dir", dir, "-out", flat}); err == nil {
		t.Error("index over a plain file at -out should fail")
	}
	if err := cmdSearch([]string{"-index", flat, "-query", queryPath}); err == nil || !strings.Contains(err.Error(), "valentine index") {
		t.Errorf("search against a plain file: err = %v, want the rebuild hint", err)
	}
}

func TestSearchErrors(t *testing.T) {
	if err := cmdSearch([]string{"-index", "does-not-exist.idx", "-query", "also-missing.csv"}); err == nil {
		t.Error("missing query flag file should fail")
	}
	if err := cmdSearch([]string{}); err == nil {
		t.Error("missing -query should fail")
	}
	if err := cmdIndex([]string{"-dir", t.TempDir()}); err == nil {
		t.Error("empty corpus dir should fail")
	}
	dir, queryPath := writeLake(t)
	if err := cmdSearch([]string{"-index", filepath.Join(dir, "none.idx"), "-query", queryPath}); err == nil {
		t.Error("missing index file should fail")
	}
	if err := cmdDiscover([]string{"-query", queryPath, "-dir", dir, "-mode", "sideways"}); err == nil {
		t.Error("bad mode should fail")
	}
}
