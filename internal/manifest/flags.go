package manifest

import (
	"flag"

	"repro/internal/dist"
	"repro/internal/popcache"
	"repro/internal/sampling"
)

// Flags is the collector-stack CLI surface shared by campaign, spa and
// spad: where simulations run (-workers), which population cache backs
// them (-popcache) and the default variance-reduction design
// (-sampling). Register the flags, parse, then Apply them to a Runner.
type Flags struct {
	Workers  string
	PopCache string
	Sampling string
}

// Register installs -workers and -popcache on a FlagSet.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Workers, "workers", "", "comma-separated spaworker addresses (host:port,...) to distribute simulations across (empty = in-process); results are byte-identical either way")
	fs.StringVar(&f.PopCache, "popcache", "", "content-addressed population cache directory; hits are byte-identical to re-simulating")
}

// RegisterSampling installs -sampling on a FlagSet.
func (f *Flags) RegisterSampling(fs *flag.FlagSet) {
	fs.StringVar(&f.Sampling, "sampling", "", "variance-reduction design: plain or stratified (a manifest analysis's own \"sampling\" wins)")
}

// Apply validates -sampling and sets the Runner's Workers, PopCache and
// Sampling from the parsed flags.
func (f *Flags) Apply(r *Runner) error {
	if _, err := sampling.ParseDesign(f.Sampling); err != nil {
		return err
	}
	r.Workers = dist.SplitAddrs(f.Workers)
	r.Sampling = f.Sampling
	if f.PopCache != "" {
		r.PopCache = popcache.New(f.PopCache, 0)
	}
	return nil
}
