package experiments

import (
	"flag"
	"runtime"
)

// OptionFlags declares the flags every experiment CLI shares on fs:
// -seed, -scale, -reps, -parallel and -measureworkers. After fs.Parse,
// the returned function builds the Options they name — -measureworkers
// 0 resolves to GOMAXPROCS — and validates them.
func OptionFlags(fs *flag.FlagSet) func() (Options, error) {
	seed := fs.Int64("seed", 1, "base seed")
	scale := fs.Float64("scale", 1.0, "duration multiplier (e.g. 0.1 for quick runs)")
	reps := fs.Int("reps", 1, "replications per scenario (cells become mean±std)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "scenario workers")
	measure := fs.Int("measureworkers", 1, "per-scenario measurement workers (0 = GOMAXPROCS); results are byte-identical for any count")
	return func() (Options, error) {
		opt := Options{Seed: *seed, TimeScale: *scale, Reps: *reps, Parallel: *parallel, MeasureWorkers: *measure}
		if opt.MeasureWorkers == 0 {
			opt.MeasureWorkers = runtime.GOMAXPROCS(0)
		}
		return opt, opt.Validate()
	}
}
