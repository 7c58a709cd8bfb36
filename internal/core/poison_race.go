//go:build race

package core

// poisonOnRelease: race builds (CI's `go test -race` jobs) overwrite the
// storage a released program keeps (Poison), so a use after Job.Release
// shows up as a wrong answer instead of passing by luck.
const poisonOnRelease = true
