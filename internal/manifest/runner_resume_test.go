package manifest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/popcache"
	"repro/internal/population"
)

// copyPopFiles copies the tiny campaign's population files from src into
// a fresh directory, so each case resumes from the same files.
func copyPopFiles(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range popFiles() {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// requireStaleFileFails runs m into dir and requires the campaign to fail
// on the population file named stale without reusing or rewriting it.
func requireStaleFileFails(t *testing.T, dir string, m *Manifest, stale string) {
	t.Helper()
	path := filepath.Join(dir, stale)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{OutDir: dir}
	r.Hooks.OnEntryDone = func(_ int, key string, reused bool, _ error) {
		if reused && strings.HasSuffix(stale, key+".json") {
			t.Errorf("entry %s reused a stale file", key)
		}
	}
	rep, err := r.Run(m)
	if err == nil {
		t.Fatalf("resume from %s succeeded: %+v", stale, rep)
	}
	if !errors.Is(err, popcache.ErrMismatch) {
		t.Errorf("error does not wrap popcache.ErrMismatch: %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name %s: %v", path, err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Errorf("stale file %s was rewritten", stale)
	}
}

// TestResumeRequiresRecipe: an -out file is served only to the recipe
// that wrote it. Every change to what an entry's population is — its run
// count from either level, the seed, the scale, its position (and with
// it its base seed) — or a file that belongs to another entry fails the
// campaign on that file.
func TestResumeRequiresRecipe(t *testing.T) {
	base := runCampaignDir(t, nil)
	cases := []struct {
		name  string
		edit  func(m *Manifest, dir string)
		stale string
	}{
		{"manifest runs", func(m *Manifest, _ string) { m.Runs++ }, "tiny-swaptions-default.json"},
		{"entry runs", func(m *Manifest, _ string) { m.Entries[1].Runs++ }, "tiny-swaptions-l2half.json"},
		{"seed", func(m *Manifest, _ string) { m.Seed++ }, "tiny-swaptions-default.json"},
		{"scale", func(m *Manifest, _ string) { m.Scale = 0.06 }, "tiny-swaptions-default.json"},
		{"entry order", func(m *Manifest, _ string) {
			m.Entries[0], m.Entries[1] = m.Entries[1], m.Entries[0]
		}, "tiny-swaptions-l2half.json"},
		{"copied file", func(_ *Manifest, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, "tiny-swaptions-l2half.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "tiny-swaptions-default.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "tiny-swaptions-default.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := copyPopFiles(t, base)
			m := tinyManifest()
			c.edit(m, dir)
			requireStaleFileFails(t, dir, m, c.stale)
		})
	}
}

// TestResumeRejectsDamagedFiles: a flipped digit in a metric value and a
// file without the key/digest trailer (what campaigns wrote before -out
// files became popcache entries) both fail the resume.
func TestResumeRejectsDamagedFiles(t *testing.T) {
	base := runCampaignDir(t, nil)
	const name = "tiny-swaptions-default.json"
	stored, err := os.ReadFile(filepath.Join(base, name))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(stored)
	i := bytes.Index(flipped, []byte(`"runtime_s":[`)) + len(`"runtime_s":[`)
	for flipped[i] < '0' || flipped[i] > '9' {
		i++
	}
	flipped[i] = '0' + (flipped[i]-'0'+1)%10

	pop, err := population.Load(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := pop.Save(&saved); err != nil {
		t.Fatal(err)
	}

	for label, data := range map[string][]byte{"flipped digit": flipped, "no trailer": saved.Bytes()} {
		t.Run(label, func(t *testing.T) {
			dir := copyPopFiles(t, base)
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			requireStaleFileFails(t, dir, tinyManifest(), name)
		})
	}
}

// TestResumeUnchangedManifest: rerunning the same manifest into its -out
// directory reuses both entries and writes a byte-identical report.
func TestResumeUnchangedManifest(t *testing.T) {
	dir := t.TempDir()
	run := func() (reused int, report []byte) {
		r := &Runner{OutDir: dir, StableReport: true}
		r.Hooks.OnEntryDone = func(_ int, _ string, re bool, _ error) {
			if re {
				reused++
			}
		}
		m := tinyManifest()
		if _, err := r.Run(m); err != nil {
			t.Fatal(err)
		}
		report, err := os.ReadFile(r.ReportPath(m))
		if err != nil {
			t.Fatal(err)
		}
		return reused, report
	}
	_, first := run()
	reused, second := run()
	if reused != 2 {
		t.Errorf("resume reused %d entries, want 2", reused)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("resumed report differs:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// TestOutFilesArePopcacheEntries: each -out file is byte for byte the
// disk popcache entry of its recipe, and population.Load — what spa ci
// -json, perfbench and scripts read these files with — returns the
// population the recipe generates.
func TestOutFilesArePopcacheEntries(t *testing.T) {
	dir, cacheDir := t.TempDir(), t.TempDir()
	m := tinyManifest()
	if _, err := (&Runner{OutDir: dir, PopCache: popcache.New(cacheDir, 0)}).Run(m); err != nil {
		t.Fatal(err)
	}
	for i, e := range m.Entries {
		k, err := m.EntryRecipe(i)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(filepath.Join(dir, "tiny-"+e.Key()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		entry, err := os.ReadFile(filepath.Join(cacheDir, "pop-"+k.Hash()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, entry) {
			t.Errorf("%s: -out file differs from its popcache entry", e.Key())
		}
		got, err := population.Load(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("%s: population.Load: %v", e.Key(), err)
		}
		want, err := population.Generate(k.Benchmark, k.Config, k.Scale, k.Runs, k.BaseSeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: population.Load returned another population", e.Key())
		}
	}
}
