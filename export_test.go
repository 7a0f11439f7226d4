package ldl

// WithMaterializedScratch maintains the same views as WithMaterialized
// but recomputes them from an empty fixpoint on every epoch. It is the
// reference arm the incremental-maintenance tests and benchmarks
// compare against, so it exists only in test builds.
func WithMaterializedScratch(opts ...Option) SystemOption {
	return func(c *sysConfig) {
		c.mat.enabled = true
		c.mat.scratch = true
		for _, f := range opts {
			f(&c.mat.o)
		}
	}
}
