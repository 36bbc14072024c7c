package manifest

import (
	"flag"
	"reflect"
	"testing"
)

func TestFlagsApply(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	f.RegisterSampling(fs)
	if err := fs.Parse([]string{"-workers", "h1:9777,h2:9777", "-popcache", dir, "-sampling", "stratified"}); err != nil {
		t.Fatal(err)
	}
	var r Runner
	if err := f.Apply(&r); err != nil {
		t.Fatal(err)
	}
	if want := []string{"h1:9777", "h2:9777"}; !reflect.DeepEqual(r.Workers, want) {
		t.Errorf("Workers %v, want %v", r.Workers, want)
	}
	if r.PopCache.Dir() != dir || r.Sampling != "stratified" {
		t.Errorf("PopCache dir %q, Sampling %q", r.PopCache.Dir(), r.Sampling)
	}

	f = Flags{Sampling: "rss"}
	if err := f.Apply(&Runner{}); err == nil {
		t.Error("Apply accepted an unknown -sampling design")
	}
}
