package tqq

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
)

func TestWriteLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig(300, 17)
	cfg.Communities = []CommunitySpec{{Size: 50, Density: 0.02}}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDataset(d, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumEntities() != d.Graph.NumEntities() {
		t.Fatalf("entities: %d vs %d", got.Graph.NumEntities(), d.Graph.NumEntities())
	}
	if got.Graph.NumEdgesTotal() != d.Graph.NumEdgesTotal() {
		t.Fatalf("edges: %d vs %d", got.Graph.NumEdgesTotal(), d.Graph.NumEdgesTotal())
	}
	// Profiles survive by label (load order equals write order here).
	for v := 0; v < d.Graph.NumEntities(); v++ {
		id := hin.EntityID(v)
		if got.Graph.Label(id) != d.Graph.Label(id) {
			t.Fatalf("label mismatch at %d", v)
		}
		a, b := got.Graph.Attrs(id), d.Graph.Attrs(id)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("attr mismatch at %d[%d]", v, i)
			}
		}
		ta, tb := got.Graph.Set(TagsAttr, id), d.Graph.Set(TagsAttr, id)
		if len(ta) != len(tb) {
			t.Fatalf("tags mismatch at %d", v)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("tag %d mismatch at %d", i, v)
			}
		}
	}
	// Edges with strengths survive.
	for lt := 0; lt < 4; lt++ {
		for v := 0; v < d.Graph.NumEntities(); v++ {
			tos, ws := d.Graph.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for i, to := range tos {
				w, ok := got.Graph.FindEdge(hin.LinkTypeID(lt), hin.EntityID(v), to)
				if !ok || w != ws[i] {
					t.Fatalf("edge lt=%d %d->%d lost or changed", lt, v, to)
				}
			}
		}
	}
	// Rec log, items, communities survive.
	if len(got.Rec) != len(d.Rec) || len(got.Items) != len(d.Items) {
		t.Fatalf("rec/items: %d/%d vs %d/%d", len(got.Rec), len(got.Items), len(d.Rec), len(d.Items))
	}
	for i := range d.Rec {
		if got.Rec[i] != d.Rec[i] {
			t.Fatalf("rec %d mismatch", i)
		}
	}
	if len(got.Communities) != 1 || len(got.Communities[0]) != 50 {
		t.Fatal("communities lost")
	}
	for i, v := range d.Communities[0] {
		if got.Communities[0][i] != v {
			t.Fatalf("community member %d mismatch", i)
		}
	}
}

func TestLoadDatasetMissingDir(t *testing.T) {
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing directory accepted")
	}
}

func TestLoadDatasetCorruptProfile(t *testing.T) {
	d, err := Generate(DefaultConfig(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDataset(d, dir); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		content string
	}{
		{"too few fields", "u1\t1980\n"},
		{"bad yob", "u1\tabc\t0\t10\t\n"},
		{"bad tag", "u1\t1980\t0\t10\tx;y\n"},
		{"duplicate user", "u1\t1980\t0\t10\t\nu1\t1980\t0\t10\t\n"},
	} {
		if err := os.WriteFile(filepath.Join(dir, "user_profile.txt"), []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDataset(dir); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestLoadDatasetUnknownUserInEdges(t *testing.T) {
	d, err := Generate(DefaultConfig(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDataset(d, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "user_sns.txt"), []byte("ghost\tu0000001\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(dir); err == nil {
		t.Fatal("unknown user in follow file accepted")
	}
}

func TestLoadDatasetCorruptEdgeFiles(t *testing.T) {
	d, err := Generate(DefaultConfig(20, 2))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDataset(d, dir); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ file, content string }{
		{"user_mention.txt", "u0000001\tu0000002\n"},      // missing strength
		{"user_mention.txt", "u0000001\tu0000002\tNaN\n"}, // bad strength
		{"user_mention.txt", "u0000001\tu0000002\t0\n"},   // zero strength
		{"user_sns.txt", "u0000001\tu0000002\textra\n"},   // too many fields
		{"rec_log.txt", "u0000001\tx\t1\n"},               // bad item id
		{"rec_log.txt", "ghost\t1\t1\n"},                  // unknown user
		{"item.txt", "x\tname\tcat\n"},                    // bad item id
		{"communities.txt", "ghost\n"},                    // unknown member
	}
	for _, tc := range cases {
		if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDataset(dir); err == nil {
			t.Errorf("%s with %q: expected error", tc.file, tc.content)
		}
		// Restore a clean copy for the next case.
		if err := WriteDataset(d, dir); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteDatasetToUnwritableDir(t *testing.T) {
	d, err := Generate(DefaultConfig(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(d, "/proc/definitely/not/writable"); err == nil {
		t.Fatal("unwritable directory accepted")
	}
}
