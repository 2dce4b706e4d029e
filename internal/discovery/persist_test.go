package discovery

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"valentine/internal/table"
)

// TestPersistenceRoundTrip: a catalog whose whole corpus sits in the
// memtable (fixtureCorpus stays under the seal threshold) reloads from
// mem.seg bit-identically — options, layout, full Result structs — and the
// reloaded memtable still accepts Add and Upsert.
func TestPersistenceRoundTrip(t *testing.T) {
	ix := New(Options{Signature: 64, Bands: 16, TokenBoost: 0.05})
	q := fixtureCorpus(t, ix)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.SealedSegments != 0 || st.MemTables == 0 {
		t.Fatalf("fixture should live in the memtable only: %+v", st)
	}
	mem, err := os.ReadFile(filepath.Join(dir, memName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(mem), segV2Magic) {
		t.Fatalf("mem.seg is not a v2 segment file (starts %q)", mem[:min(len(mem), 8)])
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got, want := loaded.Options(), ix.Options(); got != want {
		t.Errorf("options = %+v, want %+v", got, want)
	}
	if got, want := normalizeResidency(loaded.Stats()), normalizeResidency(ix.Stats()); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	for _, mode := range []Mode{ModeJoin, ModeUnion} {
		want, err := ix.Search(q, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(q, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s search diverged after round trip:\n got %+v\nwant %+v", mode, got, want)
		}
	}
	// The reloaded memtable stays mutable, on both write paths.
	if err := loaded.Add(q); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Upsert(table.New("orders").AddColumn("cust", vals("c", 0, 40))); err != nil {
		t.Fatal(err)
	}
	if loaded.NumTables() != ix.NumTables()+1 {
		t.Errorf("after Add+Upsert on the loaded catalog: %d tables, want %d", loaded.NumTables(), ix.NumTables()+1)
	}
	if ps := loaded.Profiles("orders"); len(ps) != 1 || ps[0].Column != "cust" {
		t.Errorf("upserted orders profiles = %+v", ps)
	}
}

// TestPersistenceFileHelpers: SaveSnapshot creates missing parent
// directories, and LoadSnapshot fails cleanly on a missing directory and on
// a plain file (a single-file index from before the snapshot-only layout).
func TestPersistenceFileHelpers(t *testing.T) {
	ix := New(Options{})
	q := fixtureCorpus(t, ix)
	dir := filepath.Join(t.TempDir(), "nested", "lake.idx")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Search(q, ModeJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Table != "orders" {
		t.Errorf("search on loaded index = %+v", res)
	}
	if _, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.idx")); err == nil {
		t.Error("loading a missing snapshot should fail")
	}
	flat := filepath.Join(t.TempDir(), "lake.idx")
	if err := os.WriteFile(flat, []byte("a single-file index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(flat); err == nil || !strings.Contains(err.Error(), "valentine index") {
		t.Errorf("loading a plain file: err = %v, want the rebuild hint", err)
	}
}

// TestLoadRejectsGarbage: a manifest that is not a gob manifest fails the
// load instead of yielding an empty catalog.
func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir); err == nil {
		t.Error("garbage manifest should fail to load")
	}
}

// TestSnapshotV1ManifestNeedsRebuild: a version-1 snapshot (gob segments,
// gob memtable) is a deliberate on-disk break — loading it names the
// rebuild path, and so does the serving layer's lineage pre-flight.
func TestSnapshotV1ManifestNeedsRebuild(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(manifest{Version: 1, Lineage: 7}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() error{
		"LoadSnapshot": func() error {
			_, err := LoadSnapshot(dir)
			return err
		},
		"SnapshotLineage": func() error {
			_, err := SnapshotLineage(dir)
			return err
		},
	} {
		err := load()
		if err == nil || !strings.Contains(err.Error(), "predates") || !strings.Contains(err.Error(), "valentine index") {
			t.Errorf("%s on a version-1 manifest: err = %v, want the rebuild error", name, err)
		}
	}
}

// TestSnapshotCollectsCrashedTempFiles: temp files a crashed save tore
// (seg-<id>.seg.tmp, mem.seg.tmp) and gob segments of a replaced version-1
// snapshot are removed by the next successful save; quarantined files are
// kept.
func TestSnapshotCollectsCrashedTempFiles(t *testing.T) {
	ix := liveCatalog(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	planted := []string{"seg-99.seg.tmp", memName + ".tmp", "seg-97.gob", "seg-98.seg.quarantined"}
	for _, name := range planted {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Add(table.New("late").AddColumn("k", vals("l", 0, 30))); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range planted[:3] {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived a successful save (stat err %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, planted[3])); err != nil {
		t.Errorf("save removed a quarantined file: %v", err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got, want := fmt.Sprint(loaded.Tables()), fmt.Sprint(ix.Tables()); got != want {
		t.Errorf("tables = %s, want %s", got, want)
	}
}
