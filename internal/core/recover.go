package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/epoch"
	"repro/internal/kadabra"
	"repro/internal/mpi"
)

// World-shrink-and-recalibrate recovery (ULFM-style, specialized to the
// bulk-synchronous epoch loop).
//
// The (eps, delta) guarantee depends only on the total per-vertex counts
// folded into the global state S at world rank 0, so losing a rank costs
// nothing statistically beyond its in-flight epoch: S keeps every epoch
// the dead rank already contributed. When any collective fails with
// ErrRankDead, every survivor enters the protocol below (the mpi layer
// guarantees eventual entry: a death bumps every engine's failure
// generation, which revokes pending operations and fences new ones):
//
//  1. World rank 0 coordinates: it snapshots its dead set, numbers a
//     recovery round, and sends each survivor a spec — {round, foldedEpoch,
//     salvagedRound, survivor list} — on the reserved recovery channel,
//     then collects one ACK per survivor. Any ACK failure (a survivor died
//     mid-recovery) restarts with a fresh round; survivors discard stale
//     specs by round number, so the handshake converges under further
//     deaths without timers.
//  2. Every survivor deterministically builds the shrunken communicator
//     from (survivors, round) — no collective needed — with world rank 0
//     remaining communicator rank 0.
//  3. Salvage: one flat merge-reduce over the new world of each rank's
//     own possibly-unfolded epoch frame. The ledger below makes the fold
//     at-most-once per frame — samples are never double-counted — and
//     at-most-one in-flight epoch per lost rank is dropped (plus, under
//     multi-death races, at most one in-flight epoch per survivor),
//     which is statistically neutral: sample loss is independent of the
//     sample values.
//  4. The epoch loop resumes on the shrunken world with the per-rank
//     sample schedule recalibrated to the new worker count
//     (kadabra.Config.EpochLength).
//
// A rank-0 death is the one failure this protocol does not absorb in-run:
// survivors return a coordinator-lost error, and the periodic distributed
// checkpoints (Config.CheckpointInterval) bound the loss to one interval.
// Deaths during the diameter and calibration phases are likewise reported
// as plain errors — recovery covers the adaptive epoch loop, where
// virtually all of the run time lives, and the termination broadcast that
// opens it. When rank 0 reports such an error after survivors may have
// entered recovery, it abandons the run (abandon) so they stop waiting.

const (
	recoverySpecTag = 1
	recoveryAckTag  = 2
)

// reconfigSpec is the coordinator's world-reconfiguration announcement.
type reconfigSpec struct {
	round         uint64
	foldedEpoch   int64  // last epoch folded into S at rank 0
	salvagedRound uint64 // highest round whose salvage reduce was folded
	survivors     []int  // ascending world ranks; 0 first
}

func (s reconfigSpec) encode() []byte {
	buf := make([]byte, 0, 28+4*len(s.survivors))
	buf = binary.LittleEndian.AppendUint64(buf, s.round)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.foldedEpoch))
	buf = binary.LittleEndian.AppendUint64(buf, s.salvagedRound)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.survivors)))
	for _, r := range s.survivors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	return buf
}

func decodeSpec(buf []byte) (reconfigSpec, error) {
	var s reconfigSpec
	if len(buf) < 28 {
		return s, fmt.Errorf("core: short recovery spec (%d bytes)", len(buf))
	}
	s.round = binary.LittleEndian.Uint64(buf[0:])
	s.foldedEpoch = int64(binary.LittleEndian.Uint64(buf[8:]))
	s.salvagedRound = binary.LittleEndian.Uint64(buf[16:])
	// Compared in uint64, so a hostile count cannot wrap 4*k on a 32-bit
	// int and size the allocation below.
	k := binary.LittleEndian.Uint32(buf[24:])
	if uint64(len(buf)-28) != 4*uint64(k) {
		return s, fmt.Errorf("core: recovery spec length mismatch")
	}
	s.survivors = make([]int, k)
	for i := range s.survivors {
		s.survivors[i] = int(binary.LittleEndian.Uint32(buf[28+4*i:]))
	}
	return s, nil
}

// ftState threads the fault-tolerance bookkeeping through the epoch loop
// of Algorithm2.
type ftState struct {
	comm      *mpi.Comm // current (possibly shrunken) world communicator
	origSize  int
	worldRank int

	round uint64 // last recovery round this rank participated in

	// Per-rank epoch ledger. epochSeq numbers the epochs this rank has
	// encoded since calibration; pendingWire/pendingEpoch describe the last
	// encoded frame — exactly the state that may need salvaging — and
	// pendingSalvage is the recovery round that conditionally consumed it
	// (0 = none).
	epochSeq       int64
	pendingWire    []byte
	pendingEpoch   int64
	pendingSalvage uint64

	// Coordinator ledger (world rank 0 only). foldedEpoch is the last
	// epoch folded into S — normal folds are atomic at the root, so this
	// is exact; salvagedRound is the highest round whose salvage reduce
	// was folded. Both travel in the spec, which is how survivors learn
	// whether their pending frame was consumed.
	foldedEpoch   int64
	salvagedRound uint64

	// emptyWire is the encoding of a fresh state frame, the non-contribution
	// in a salvage reduce.
	emptyWire []byte

	ranksLost  int
	recoveries int
}

func newFTState(comm *mpi.Comm, st *kadabra.EstimatorState) *ftState {
	return &ftState{
		comm:      comm,
		origSize:  comm.Size(),
		worldRank: comm.SelfWorldRank(),
		emptyWire: epoch.AppendEmptyWire(nil, st.N()),
	}
}

// noteEpoch records the frame this rank just encoded for aggregation.
// wire is retained (not copied): the salvage reduce copies on send, and
// the buffer is only reused after the next noteEpoch.
func (ft *ftState) noteEpoch(wire []byte) {
	ft.epochSeq++
	ft.pendingWire = wire
	ft.pendingEpoch = ft.epochSeq
	ft.pendingSalvage = 0
}

// noteFold records (at rank 0) that the current epoch's reduction was
// folded into S.
func (ft *ftState) noteFold() {
	ft.foldedEpoch = ft.epochSeq
}

// recover runs the shrink-and-recalibrate protocol until the world is
// consistent again or the failure is unrecoverable (not a rank death, a
// coordinator death, or this rank falsely declared dead). On success
// ft.comm is the shrunken world communicator and the salvageable samples
// have been folded into rank 0's state (st is only folded into there).
func (ft *ftState) recover(cause error, st *kadabra.EstimatorState) error {
	for {
		if _, ok := mpi.AsRankDead(cause); !ok {
			return cause
		}
		var nc *mpi.Comm
		var spec reconfigSpec
		var err error
		if ft.worldRank == 0 {
			nc, spec, err = ft.coordinate()
		} else {
			nc, spec, err = ft.follow()
		}
		if err != nil {
			return err
		}
		if cause = ft.salvage(nc, spec, st); cause != nil {
			continue // a further death interrupted the salvage
		}
		ft.comm = nc
		ft.epochSeq = spec.foldedEpoch
		ft.ranksLost = ft.origSize - len(spec.survivors)
		ft.recoveries++
		return nil
	}
}

// coordinate is world rank 0's half of the handshake: announce a round,
// collect ACKs, restart the round if a survivor dies meanwhile.
func (ft *ftState) coordinate() (*mpi.Comm, reconfigSpec, error) {
	world := ft.comm
	for {
		ft.round++
		dead := world.DeadRanks()
		isDead := make(map[int]bool, len(dead))
		for _, d := range dead {
			isDead[d] = true
		}
		survivors := make([]int, 0, ft.origSize-len(dead))
		for r := 0; r < ft.origSize; r++ {
			if !isDead[r] {
				survivors = append(survivors, r)
			}
		}
		spec := reconfigSpec{
			round:         ft.round,
			foldedEpoch:   ft.foldedEpoch,
			salvagedRound: ft.salvagedRound,
			survivors:     survivors,
		}
		payload := spec.encode()
		for _, s := range survivors {
			if s != 0 {
				// Best effort: a send failure means the survivor just died,
				// which the ACK collection below will observe.
				world.RecoverySend(s, recoverySpecTag, payload)
			}
		}
		ok := true
		for _, s := range survivors {
			if s == 0 {
				continue
			}
			acked := false
			for !acked && ok {
				data, err := world.RecoveryRecv(s, recoveryAckTag).Wait()
				if err != nil {
					ok = false // s died; restart with a fresh round
					break
				}
				// Discard ACKs of abandoned earlier rounds.
				acked = len(data) >= 8 && binary.LittleEndian.Uint64(data) >= ft.round
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		nc, err := world.Shrink(survivors, ft.round)
		if err != nil {
			return nil, reconfigSpec{}, err
		}
		return nc, spec, nil
	}
}

// abandon is world rank 0 leaving the run on a rank death before the epoch
// loop, when survivors may already wait in follow for a recovery round (see
// Algorithm2's first broadcast). It sends every other world rank a spec
// newer than any round and naming no survivors, on which follow gives up.
func abandon(world *mpi.Comm) {
	payload := reconfigSpec{round: math.MaxUint64}.encode()
	for r := 1; r < world.Size(); r++ {
		world.RecoverySend(r, recoverySpecTag, payload) // a dead rank's copy is lost
	}
}

// ErrCoordinatorLost reports that world rank 0 died, or abandoned the run
// before the epoch loop: in-run recovery is impossible by design (rank 0
// owns the global state S), so survivors abort and the caller restarts
// from the latest distributed checkpoint.
// Test with errors.Is; the cause (usually an mpi.ErrRankDead) is wrapped
// alongside it.
var ErrCoordinatorLost = errors.New("core: coordinator (world rank 0) lost, in-run recovery impossible — restart from the latest distributed checkpoint")

// follow is a survivor's half of the handshake: wait for a spec (specs
// arrive in round order on the FIFO recovery channel; stale rounds are
// skipped), ACK it, and build the shrunken world.
func (ft *ftState) follow() (*mpi.Comm, reconfigSpec, error) {
	world := ft.comm
	for {
		data, err := world.RecoveryRecv(0, recoverySpecTag).Wait()
		if err != nil {
			return nil, reconfigSpec{}, fmt.Errorf("%w: %w", ErrCoordinatorLost, err)
		}
		spec, derr := decodeSpec(data)
		if derr != nil {
			return nil, reconfigSpec{}, derr
		}
		if len(spec.survivors) == 0 {
			return nil, reconfigSpec{}, fmt.Errorf("%w: it abandoned the run", ErrCoordinatorLost)
		}
		if spec.round <= ft.round {
			continue
		}
		ft.round = spec.round
		found := false
		for _, s := range spec.survivors {
			if s == ft.worldRank {
				found = true
				break
			}
		}
		if !found {
			// A partition can make the coordinator declare this rank dead
			// while it is merely unreachable; it cannot rejoin.
			return nil, reconfigSpec{}, fmt.Errorf("core: world rank %d excluded from shrunken world (declared dead)", ft.worldRank)
		}
		var ack [8]byte
		binary.LittleEndian.PutUint64(ack[:], spec.round)
		world.RecoverySend(0, recoveryAckTag, ack[:])
		nc, err := world.Shrink(spec.survivors, spec.round)
		if err != nil {
			return nil, reconfigSpec{}, err
		}
		return nc, spec, nil
	}
}

// salvage runs one flat merge-reduce over the shrunken world of each
// rank's own possibly-unfolded epoch frame and folds it into rank 0's state.
//
// At-most-once accounting: a rank contributes its pending frame iff
//   - no earlier salvage consumed it (pendingSalvage == 0) and the frame's
//     epoch was never folded normally (pendingEpoch > spec.foldedEpoch), or
//   - an earlier salvage consumed it conditionally, but that round's fold
//     never landed at the root (pendingSalvage > spec.salvagedRound).
//
// Everything else contributes an empty frame. The root folds the salvage
// reduce atomically, so a frame is folded at most once: if the root folded
// round r, every contribution of round r is in S and the next spec's
// salvagedRound >= r retires them; if the root never folded round r, the
// next spec re-arms every round-r contribution.
func (ft *ftState) salvage(nc *mpi.Comm, spec reconfigSpec, st *kadabra.EstimatorState) error {
	contribute := false
	if len(ft.pendingWire) > 0 {
		if ft.pendingSalvage > 0 {
			contribute = ft.pendingSalvage > spec.salvagedRound
		} else {
			contribute = ft.pendingEpoch > spec.foldedEpoch
		}
	}
	buf := ft.emptyWire
	if contribute {
		buf = ft.pendingWire
		ft.pendingSalvage = spec.round
	}
	res, err := nc.ReduceMerge(0, buf, epoch.MergeWire)
	if err != nil {
		return err
	}
	if nc.Rank() == 0 {
		if _, ferr := st.FoldWire(res); ferr != nil {
			return fmt.Errorf("core: salvage frame: %w", ferr)
		}
		ft.salvagedRound = spec.round
	}
	return nil
}
