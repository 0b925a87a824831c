// Package testonly is the golden API package for the testonly check. Like
// the module's root package, it is checked like every other package: a
// declaration here is live only when a main (package main) reaches it.
package testonly

import (
	"encoding/json"
	"fmt"
	"net/http"

	"memca/internal/lint/testdata/testonly/a"
	"memca/internal/lint/testdata/testonly/b"
)

// Public is reached only from package main: not flagged.
func Public() string {
	var s a.Shape = a.Square{Side: 2}
	http.Handle("/", a.Handler{})
	return fmt.Sprint(s.Area(), a.Red, b.Run())
}

// Unreached is an API-package name nothing calls.
func Unreached() string { return "" } // want `func Unreached has no non-test use`

// Configure writes every field of a.Config the check must see as set.
func Configure(data []byte) (a.Config, a.Pair, error) {
	c := a.Config{Keyed: 1}
	c.Counter++
	p := &c.Pointed
	*p = 2
	c.Indexed[0] = 3
	err := json.Unmarshal(data, &c)
	return c, a.Pair{1, 2}, err
}

// Record fills the read-side cases of package a.
func Record() (a.Status, a.Export, a.SolveResult) {
	st := a.Status{Code: 1, Probe: 2, KeptProbe: 3}
	st.Last = 4
	return st, a.Export{Items: []a.Item{{Weight: 5}}}, a.SolveResult{Cost: 6}
}
