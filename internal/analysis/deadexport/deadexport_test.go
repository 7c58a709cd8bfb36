package deadexport_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/deadexport"
)

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, deadexport.Analyzer, "deadexport/support", "deadexport", "deadexport/user")
}
