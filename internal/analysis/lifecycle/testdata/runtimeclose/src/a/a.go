// Fixtures for the runtimeclose analyzer. Parse-only: the hmpi import
// does not need to resolve.
package a

import "repro/internal/hmpi"

type server struct{ rt *hmpi.Runtime }

// leak: the runtime is run but never finalized.
func leak(cfg hmpi.Config) error {
	rt, err := hmpi.New(cfg) // want "never finalized"
	if err != nil {
		return err
	}
	return rt.Run(nil)
}

// deferClose is the idiom: defer Finalize next to New.
func deferClose(cfg hmpi.Config) error {
	rt, err := hmpi.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Finalize()
	return rt.Run(nil)
}

// directClose finalizes explicitly at the end.
func directClose(cfg hmpi.Config) {
	rt, _ := hmpi.New(cfg)
	rt.Run(nil)
	rt.Finalize()
}

// closureClose finalizes from a nested literal (a shutdown hook).
func closureClose(cfg hmpi.Config) func() {
	rt, _ := hmpi.New(cfg)
	return func() { rt.Finalize() }
}

// escapeReturn hands the runtime to the caller: obligation transfers.
func escapeReturn(cfg hmpi.Config) (*hmpi.Runtime, error) {
	rt, err := hmpi.New(cfg)
	return rt, err
}

// escapeStore parks the runtime in a struct: the struct's owner closes it.
func escapeStore(cfg hmpi.Config, s *server) {
	rt, _ := hmpi.New(cfg)
	s.rt = rt
}

// escapeArg passes the runtime to a helper (the OnRuntime-hook shape).
func escapeArg(cfg hmpi.Config, observe func(*hmpi.Runtime)) {
	rt, _ := hmpi.New(cfg)
	observe(rt)
	rt.Run(nil)
}

// discardStmt drops the runtime on the floor: nothing can finalize it.
func discardStmt(cfg hmpi.Config) {
	hmpi.New(cfg) // want "discarded"
}

// discardBlank is the same leak through a blank binding.
func discardBlank(cfg hmpi.Config) {
	_, _ = hmpi.New(cfg) // want "discarded"
}

// nearMissWrongVar: finalizing one runtime does not cover another.
func nearMissWrongVar(cfg hmpi.Config) {
	a, _ := hmpi.New(cfg) // want "never finalized"
	b, _ := hmpi.New(cfg)
	b.Finalize()
	a.Run(nil)
}

// rebind: each binding of the name is its own lifetime; the first one is
// finalized before the rebinding, the second leaks.
func rebind(cfg hmpi.Config) {
	rt, _ := hmpi.New(cfg)
	rt.Run(nil)
	rt.Finalize()
	rt, _ = hmpi.New(cfg) // want "never finalized"
	rt.Run(nil)
}

// runOnly reads the runtime without finalizing or retaining it.
func runOnly(rt *hmpi.Runtime) error {
	return rt.Run(nil)
}

// closeAfterRun finalizes the runtime on behalf of its caller.
func closeAfterRun(rt *hmpi.Runtime) {
	rt.Run(nil)
	rt.Finalize()
}

// passedToReadOnlyHelper: a helper that only runs the runtime does not
// take it over, so the obligation stays here.
func passedToReadOnlyHelper(cfg hmpi.Config) error {
	rt, err := hmpi.New(cfg) // want "never finalized"
	if err != nil {
		return err
	}
	return runOnly(rt)
}

// passedToClosingHelper: the helper's Finalize discharges the runtime.
func passedToClosingHelper(cfg hmpi.Config) {
	rt, _ := hmpi.New(cfg)
	closeAfterRun(rt)
}

// earlyReturnLeak: the return above the non-deferred Finalize skips it.
func earlyReturnLeak(cfg hmpi.Config, skip bool) {
	rt, _ := hmpi.New(cfg)
	if skip {
		return // want "may leak"
	}
	rt.Run(nil)
	rt.Finalize()
}
