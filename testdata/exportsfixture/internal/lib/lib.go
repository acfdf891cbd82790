// Package lib is the exports guard's fixture: what cmd/app and
// lib_test.go reference decides which of its exports the guard reports.
package lib

// Dead is referenced by nothing: reported.
func Dead() {}

// TestOnly is referenced only by lib_test.go: reported.
func TestOnly() {}

// Used is called from cmd/app: not reported.
func Used() T { return T{} }

// T is Used's result type.
type T struct{}

// M is called only through an interface in cmd/app: not reported.
func (T) M() {}
