package syncblock

import (
	"fmt"

	"hwgc/internal/object"
)

// State is the complete state of the synchronization block mid-collection:
// scan/free registers and lock owners, per-core header-lock registers,
// ScanState busy bits, barrier arrival bits, and the event counters. The
// live SB keeps its registers in a State, so capture and restore are
// copies; the derived busyCount and per-barrier arrival counts are
// recomputed on restore.
type State struct {
	Cores     int
	Scan      object.Addr
	Free      object.Addr
	ScanOwner int
	FreeOwner int
	HeaderReg []object.Addr
	Busy      []bool
	Barriers  [][]bool
	Stats     Stats
}

// clone returns a copy of st that shares no slice with it.
func (st *State) clone() *State {
	c := *st
	c.HeaderReg = append([]object.Addr(nil), st.HeaderReg...)
	c.Busy = append([]bool(nil), st.Busy...)
	c.Barriers = make([][]bool, len(st.Barriers))
	for id, arr := range st.Barriers {
		if arr != nil {
			c.Barriers[id] = append([]bool(nil), arr...)
		}
	}
	return &c
}

// CaptureState returns a deep copy of the SB's state.
func (s *SB) CaptureState() *State { return s.st.clone() }

// RestoreState overwrites the SB's state with a copy of a captured state,
// validating shapes and owner ranges, and recomputes the derived busy and
// arrival counts. The SB must have been created for the same core count.
func (s *SB) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("syncblock: nil state")
	}
	n := s.st.Cores
	if st.Cores != n {
		return fmt.Errorf("syncblock: state for %d cores, SB has %d", st.Cores, n)
	}
	if len(st.HeaderReg) != n || len(st.Busy) != n {
		return fmt.Errorf("syncblock: state register lengths %d/%d, want %d",
			len(st.HeaderReg), len(st.Busy), n)
	}
	if st.ScanOwner < noOwner || st.ScanOwner >= n {
		return fmt.Errorf("syncblock: scan owner %d out of range", st.ScanOwner)
	}
	if st.FreeOwner < noOwner || st.FreeOwner >= n {
		return fmt.Errorf("syncblock: free owner %d out of range", st.FreeOwner)
	}
	for id, arr := range st.Barriers {
		if arr != nil && len(arr) != n {
			return fmt.Errorf("syncblock: barrier %d has %d arrival bits, want %d", id, len(arr), n)
		}
	}
	s.st = *st.clone()
	s.busyCount = 0
	for _, b := range s.st.Busy {
		if b {
			s.busyCount++
		}
	}
	s.arrived = make([]int, len(s.st.Barriers))
	for id, arr := range s.st.Barriers {
		for _, a := range arr {
			if a {
				s.arrived[id]++
			}
		}
	}
	return nil
}
