package lint

// Config selects the rules to run and the package policy each rule
// enforces. All package lists hold import paths.
type Config struct {
	// Rules to execute, in order.
	Rules []Rule
	// Allow maps a rule name to packages the rule skips entirely — the
	// per-package allowlist. Rules consult it through Run; they never
	// see allowlisted packages.
	Allow map[string][]string

	// DeterministicPackages must be bit-reproducible across runs: no
	// ambient randomness (math/rand) and no wall clocks (time.Now and
	// friends). Clock access for telemetry goes through the telemetry
	// package's instruments instead.
	DeterministicPackages []string

	// ClockSanctionedPackages encapsulate time behind instruments whose
	// readings never feed the numeric pipeline; det-rand-transitive
	// does not traverse call chains into them.
	ClockSanctionedPackages []string

	// LifecycleTypes are the fully qualified named types
	// ("pkgpath.Type") whose methods tie a goroutine to the process
	// shutdown path; goroutine-leak accepts a launched body that calls
	// one.
	LifecycleTypes []string

	// HDCPackages hold the hypervector kernels; calling into them from
	// a map-ordered loop makes numeric results order-dependent.
	HDCPackages []string

	// RNGSourceTypes are the fully qualified named types
	// ("pkgpath.Type") of seeded random streams; consuming one inside a
	// map-ordered loop breaks seeded reproducibility.
	RNGSourceTypes []string

	// TelemetryPackage is the package whose exported instrument methods
	// must begin with a nil-receiver guard.
	TelemetryPackage string
	// InstrumentTypes are the receiver type names the telemetry-nil
	// rule checks within TelemetryPackage.
	InstrumentTypes []string

	// LogStylePackages are the instrumented packages where operational
	// output must flow through the structured telemetry Logger: bare
	// stdlib log calls and fmt.Print/Println are forbidden there
	// (fmt.Printf remains the channel for human-readable result tables).
	LogStylePackages []string
}

// Default returns the EdgeHD policy for a module rooted at modPath:
//
//   - det-rand over the deterministic pipeline packages (hdc, encoding,
//     core, hierarchy, rng) and det-rand-transitive over the same set
//     via the module call graph (chains through the clock-sanctioned
//     telemetry/netsim packages are exempt);
//   - map-order everywhere;
//   - panic-policy everywhere except the hdc and rng kernels, whose
//     index/size guards are sanctioned programmer-error panics;
//   - err-style everywhere (main packages are skipped by the rule);
//   - telemetry-nil over the telemetry instrument types;
//   - log-style over the instrumented packages (the telemetry layers
//     and every cmd binary);
//   - goroutine-leak and lock-across-io everywhere.
func Default(modPath string) *Config {
	p := func(rel string) string { return modPath + "/" + rel }
	return &Config{
		Rules: []Rule{
			DetRand{},
			DetRandTransitive{},
			MapOrder{},
			PanicPolicy{},
			ErrStyle{},
			TelemetryNil{},
			LogStyle{},
			GoroutineLeak{},
			LockAcrossIO{},
		},
		Allow: map[string][]string{
			// Guard panics (negative dimension, slice out of range,
			// dimension mismatch, non-positive n) are the documented
			// contract of the kernels: they signal programmer errors on
			// hot paths where error returns would poison every caller.
			"panic-policy": {p("internal/hdc"), p("internal/rng")},
		},
		DeterministicPackages: []string{
			p("internal/hdc"),
			p("internal/encoding"),
			p("internal/core"),
			p("internal/hierarchy"),
			p("internal/parallel"),
			p("internal/rng"),
			// The serving plane computes over the deterministic pipeline;
			// its only sanctioned clock uses (batch window, I/O deadlines)
			// carry per-line allow directives.
			p("internal/serve"),
			// The scenario engine's reports must be pure functions of the
			// seed — wall-clock stamps belong to its cmd-layer callers.
			p("internal/scenario"),
		},
		ClockSanctionedPackages: []string{
			p("internal/telemetry"),
			p("internal/netsim"),
		},
		LifecycleTypes:   []string{p("internal/telemetry") + ".Lifecycle"},
		HDCPackages:      []string{p("internal/hdc")},
		RNGSourceTypes:   []string{p("internal/rng") + ".Source"},
		TelemetryPackage: p("internal/telemetry"),
		InstrumentTypes: []string{
			"Registry", "Counter", "Gauge", "Histogram", "Tracer", "SpanHandle",
			"Collector", "Logger", "Health", "Heartbeat", "SLO", "ProfileRing",
			"LeakDetector", "Lifecycle",
			"Series", "Sampler", "FlightRecorder", "LogRing",
		},
		LogStylePackages: []string{
			p("internal/telemetry"),
			p("internal/cluster"),
			p("internal/hierarchy"),
			p("internal/netsim"),
			p("internal/serve"),
			p("internal/scenario"),
			p("cmd/edgehd"),
			p("cmd/fedlearn"),
			p("cmd/paper"),
			p("cmd/soak"),
			p("cmd/hdlint"),
			p("cmd/covergate"),
		},
	}
}

// allowed reports whether pkgPath is allowlisted for the rule.
func (c *Config) allowed(rule, pkgPath string) bool {
	for _, p := range c.Allow[rule] {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
