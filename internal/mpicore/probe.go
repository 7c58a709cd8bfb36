package mpicore

import "repro/internal/fabric"

// probeScan looks for the oldest unexpected envelope matching the probe
// parameters without consuming it, filling st on a hit. Eager envelopes
// report their payload size; rendezvous announcements report the size
// carried in the RTS header (MANA's drain protocol depends on these).
func (p *Proc) probeScan(c *Comm, srcWorld, tag int, cid uint32, st *Status) bool {
	probe := &Request{comm: c, srcWorld: srcWorld, tag: tag, cid: cid}
	for _, e := range p.unexpected {
		if e.Proto != fabric.ProtoEager && e.Proto != fabric.ProtoRTS {
			continue
		}
		if !p.envMatches(probe, e) {
			continue
		}
		if st != nil {
			*st = Status{Source: int32(c.PosOf(e.Src)), Tag: e.Tag, Error: int32(p.E.Success),
				CountBytes: uint64(len(e.Payload))}
			if e.Proto == fabric.ProtoRTS {
				st.CountBytes = e.Hdr
			}
		}
		return true
	}
	return false
}

// probeArgs validates and resolves probe arguments; the boolean result is
// false for PROC_NULL (which "matches" immediately with an empty status).
func (p *Proc) probeArgs(c *Comm, source, tag int) (int, bool, int) {
	if code := p.checkComm(c); code != p.E.Success {
		return 0, false, code
	}
	if code := p.validateRankTag(c, source, tag, false); code != p.E.Success {
		return 0, false, code
	}
	if source == p.K.ProcNull {
		return 0, false, p.E.Success
	}
	srcWorld := p.K.AnySource
	if source != p.K.AnySource {
		srcWorld = c.Ranks[source]
	}
	return srcWorld, true, p.E.Success
}

// Probe mirrors MPI_Probe: block until a matching message is pending.
func (p *Proc) Probe(source, tag int, c *Comm, st *Status) int {
	srcWorld, real, code := p.probeArgs(c, source, tag)
	if code != p.E.Success {
		return code
	}
	if !real {
		if st != nil {
			p.ProcNullStatus(st)
		}
		return p.E.Success
	}
	for !p.probeScan(c, srcWorld, tag, c.CID, st) {
		// A probe is not a posted request, so the sweep cannot complete
		// it; apply the doom rule here so probing a dead source (or a
		// wildcard over an unacknowledged failure) raises ErrProcFailed
		// instead of blocking forever. Queued messages the peer sent
		// before dying were scanned first and still deliver.
		if code, doomed := p.doom(c, srcWorld, c.CID, false); doomed {
			return code
		}
		if code := p.Progress(true); code != p.E.Success {
			return code
		}
	}
	return p.E.Success
}

// Iprobe mirrors MPI_Iprobe: poll for a matching pending message.
func (p *Proc) Iprobe(source, tag int, c *Comm, st *Status) (bool, int) {
	srcWorld, real, code := p.probeArgs(c, source, tag)
	if code != p.E.Success {
		return false, code
	}
	if !real {
		if st != nil {
			p.ProcNullStatus(st)
		}
		return true, p.E.Success
	}
	if p.probeScan(c, srcWorld, tag, c.CID, st) {
		return true, p.E.Success
	}
	if code := p.Progress(false); code != p.E.Success {
		return false, code
	}
	if p.probeScan(c, srcWorld, tag, c.CID, st) {
		return true, p.E.Success
	}
	if code, doomed := p.doom(c, srcWorld, c.CID, false); doomed {
		return false, code
	}
	return false, p.E.Success
}
