package deadexport

import (
	"testing"

	"deadexport/support"
)

func TestOnly(t *testing.T) {
	OnlyTests()
	support.Helper()
}
