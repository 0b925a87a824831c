// Package b is a golden file for the testonly check: it uses package a.
package b

import "memca/internal/lint/testdata/testonly/a"

// Run calls into package a.
func Run() string {
	if err := a.Used(); err != nil {
		return err.Error()
	}
	return ""
}
