package trace // deterministic core by its path suffix

import "time"

func Stamp() int64 { return time.Now().UnixNano() } // one walltime finding
