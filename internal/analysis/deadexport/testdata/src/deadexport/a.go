// Package deadexport seeds the deadexport analyzer: exports that only
// tests reference, and every kind of export that counts as referenced.
package deadexport

import "fmt"

// OnlyTests has no caller outside a _test.go file.
func OnlyTests() {} // want `deadexport.OnlyTests is exported but no non-test file of the module references it`

// UsedElsewhere is called from another package's non-test file.
func UsedElsewhere() {}

// Shape is an interface the program declares; Square satisfies it.
type Shape interface{ Area() float64 }

// Square implements Shape, so Area needs no direct caller.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is on no interface and has no caller.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `\(deadexport.Square\).Perimeter is exported but no non-test file`

// Label satisfies fmt.Stringer and Fault satisfies error, which every
// program may hand either to.
type Label string

func (l Label) String() string { return string(l) }

type Fault struct{}

func (*Fault) Error() string { return "fault" }

// Describe takes the interface the program declares.
func Describe(s Shape) string { return fmt.Sprint(s.Area()) }

// Justified has a caller mpivet cannot load.
//
//mpivet:allow deadexport -- seeded: proves a justified directive suppresses the finding
func Justified() {}

func Unjustified() {} //mpivet:allow deadexport // want `deadexport.Unjustified is exported but no non-test file` `mpivet:allow directive is missing its justification`
