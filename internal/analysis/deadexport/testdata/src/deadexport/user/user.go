// Package user references deadexport from a non-test file.
package user

import "deadexport"

var _ = deadexport.Describe(deadexport.Square{Side: 2})

func init() { deadexport.UsedElsewhere() }
