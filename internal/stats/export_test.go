package stats

// HistoryCap exposes the capacity of an integrator's transition history
// to the external tests.
func HistoryCap(li *LevelIntegrator) int { return cap(li.transitions) }
