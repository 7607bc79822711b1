// Copyright 2026 The ccr Authors.
//
// The crash driver: open the real engine (Engine::Open) on a temp
// directory, kill the "machine" while its workers commit, open a fresh
// engine on what reached the disk, and audit it against the sequence the
// run produced.
//
// The engine is the whole durable stack: a GroupCommitPipeline in any
// DurabilityMode over a segmented journal, optionally a LogStructuredStore,
// and maintenance passes (eviction, Engine::Checkpoint's fuzzy checkpoint
// and truncation, store compaction) that a driver thread runs at fixed
// commit counts while the workers commit. The workload is a TxnBody on N
// threads or an unpaced burst through a ServeFrontend. The fault is data
// (CrashFault). The journal sink, the checkpointer and the store share one
// CrashPoints, so a death kills them together; an I/O error leaves them
// running, and the pipeline's fail-stop alone must keep anything more from
// being acknowledged or published. Journal records reach the disk only
// when a sync writes them (a page-cache sink laid over the journal sink
// through EngineOptions::journal_decorator), so the machine's death loses
// what was never synced (a record death leaves a seeded prefix of it), and
// an ack or an image that ran ahead of the sync is caught. The audit's
// open restarts the crashed directory and resumes it, reopening the
// journal at high_lsn + 1 (which cuts a torn tail), so every scenario also
// exercises the resume. Audits:
//
//   1. the recovered entries are a prefix of the run's sequence, and
//      recovery lands on exactly the records that survived the crash whole;
//   2. every recovered object equals a spec-level replay (RecoverState,
//      not the engine) of that prefix;
//   3. every commit that returned OK is recovered, and none was acked
//      beyond the watermark frozen at the failure (under kRelaxed, which
//      acks before durability by contract, the watermark is the acked set);
//   4. no transaction is torn across the objects it wrote;
//   5. serving only: ops are conserved exactly on a run without a fault,
//      and acked ⊆ recovered ⊆ journaled otherwise.

#ifndef CCR_SIM_CRASH_HARNESS_H_
#define CCR_SIM_CRASH_HARNESS_H_

#include <string>

#include "engine/engine.h"
#include "serve/frontend.h"
#include "sim/driver.h"
#include "sim/open_loop.h"
#include "txn/group_commit.h"

namespace ccr {

// The one fault a run injects.
struct CrashFault {
  enum class Kind {
    kNone,         // clean run: drain, then crash with everything durable
    kRecord,       // the machine dies at a journal record
    kPoint,        // the machine dies at a named crash point
    kAppendError,  // a journal append returns an I/O error
    kSyncError,    // a journal sync returns an I/O error
  };
  Kind kind = Kind::kNone;
  // kRecord / kAppendError / kSyncError strike the first journal append
  // (kSyncError: sync) after the acks reach this fraction of the workload
  // (transactions or submissions, less those aborted or refused so far):
  // a record position picked in the run, among acknowledged work, so it
  // lands mid-run and mid-batch.
  double fraction = 0;
  std::string point;  // kPoint: rot.*, trunc.*, ckpt.*, store.*
  int error = 0;      // kAppendError / kSyncError: the errno

  // Fraction 1 (or more), or an empty point, is a clean run.
  static CrashFault AtFraction(double fraction) {
    if (fraction >= 1) return CrashFault{};
    return CrashFault{Kind::kRecord, fraction, "", 0};
  }
  static CrashFault AtPoint(std::string point) {
    if (point.empty()) return CrashFault{};
    return CrashFault{Kind::kPoint, 0, std::move(point), 0};
  }
  static CrashFault AppendError(int error, double fraction) {
    return CrashFault{Kind::kAppendError, fraction, "", error};
  }
  static CrashFault SyncError(int error, double fraction) {
    return CrashFault{Kind::kSyncError, fraction, "", error};
  }
};

struct CrashScenarioOptions {
  // The TxnBody runs driver.txns_per_thread times on each of
  // driver.threads threads; the serving workload offers `requests`
  // submissions from driver.threads submitter threads, retrying each shed
  // one until it is accepted or the engine refuses it for good (a cut at a
  // fraction needs acks all through the burst: under kGroup keep
  // group_commit.max_batch small). driver.seed seeds the workload and the
  // bytes a crash keeps.
  DriverOptions driver;
  size_t requests = 400;
  ServeFrontendOptions frontend;  // queue_depth < requests makes it shed
  GroupCommitOptions group_commit{DurabilityMode::kGroup};
  CrashFault fault;
  // Journal segment size (small so rotation and truncation happen).
  uint64_t max_segment_bytes = 1 << 20;
  // Attach a LogStructuredStore: evictions, store-batch checkpoints,
  // compaction, and a store-preferring restart.
  bool store = false;
  uint64_t store_segment_bytes = 2048;
  // Commits acknowledged between maintenance passes (eviction with a
  // store, checkpoint, truncation, compaction with a store); 0: none.
  size_t maintenance_every = 0;
  int replay_threads = 1;
};

struct CrashScenarioResult {
  // The run.
  size_t records_total = 0;    // entries the run sequenced, in LSN order
  size_t records_on_disk = 0;  // entries that survived the crash whole
  Lsn durable_lsn = 0;         // watermark at the end, frozen by a failure
  bool fault_fired = false;
  Status failure;  // the pipeline's fail-stop status (OK: it never failed)
  size_t acked = 0;  // commits / submissions that returned OK
  // Maintenance that landed.
  size_t checkpoints = 0;
  size_t truncations = 0;  // passes that removed journal segments
  size_t evictions = 0;
  uint64_t compactions = 0;  // store segment rewrites
  // Serving only.
  ServeStats serve;
  uint64_t acked_ops = 0;      // ops of submissions completed OK
  uint64_t recovered_ops = 0;  // ops in the recovered prefix
  uint64_t journal_ops = 0;    // ops in the run's sequence

  // A workload or maintenance error the fault does not explain, else the
  // restart's outcome.
  Status status;
  RestartSummary summary;

  bool prefix_ok = false;              // audit 1
  bool state_ok = false;               // audit 2
  size_t acked_lost = 0;               // audit 3 (serving: in ops)
  size_t acked_beyond_watermark = 0;   // audit 3 (serving: in ops)
  size_t multi_object_txns = 0;        // audit 4: journaled
  size_t multi_object_whole = 0;       //   recovered at every object
  size_t multi_object_partial = 0;     //   recovered at a strict subset
  bool ops_ok = true;                  // audit 5

  bool ok() const {
    return status.ok() && prefix_ok && state_ok && acked_lost == 0 &&
           acked_beyond_watermark == 0 && multi_object_partial == 0 &&
           ops_ok;
  }
};

// Runs the scenario with a TxnBody workload. `factory` runs twice, in the
// live run's Engine::Open and in the audit's: a crash loses every volatile
// structure, so recovery starts from a newly constructed engine.
CrashScenarioResult RunCrashScenario(const SystemFactory& factory,
                                     const TxnBody& body,
                                     const CrashScenarioOptions& options);

// Runs the scenario with a serving burst through a ServeFrontend.
CrashScenarioResult RunCrashScenario(const SystemFactory& factory,
                                     const RequestFactory& make_request,
                                     const CrashScenarioOptions& options);

}  // namespace ccr

#endif  // CCR_SIM_CRASH_HARNESS_H_
