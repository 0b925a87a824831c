package a

import "testing"

// The testonly check reads no test file: the names below count as unused.
func TestHelpers(t *testing.T) {
	var c Config
	c.Never, c.KeptField = helper(), debugLevel+unusedLimit
	_ = onlyTests{}
	_ = Square{}.Perimeter()
	Kept()
	NoReason()
	_ = c.hidden
	var st Status
	_ = st.Probe + st.KeptProbe
}
