package analysis

// All returns the full cqlint suite in reporting order. The first four
// are per-function checks; lockorder, goroleak and poolsafe are the
// interprocedural analyzers built on the call graph.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		SendUnderLockAnalyzer,
		ObsRegisterAnalyzer,
		LockOrderAnalyzer,
		GoroLeakAnalyzer,
		PoolSafeAnalyzer,
	}
}
