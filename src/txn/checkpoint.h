// Copyright 2026 The ccr Authors.
//
// Fuzzy checkpoints for the segmented journal. A checkpoint is one
// checksummed file, checkpoint.<anchor>, holding each object's committed
// state (through its ADT's state codec) together with the LSN of the last
// commit record sequenced at that object, plus the anchor — the journal's
// high LSN captured BEFORE the object walk — and the highest assigned
// transaction id.
//
// The checkpoint is *fuzzy*: objects are snapshotted one at a time with
// transactions still running, so the per-object LSNs generally differ and
// may exceed the anchor. Soundness comes from two facts. First, each
// snapshot pairs state and LSN under the same object mutex that sequences
// commit records, so it reflects exactly the records with lsn <= its LSN.
// Second, the anchor is captured before any snapshot, so every record with
// lsn <= anchor was sequenced — and therefore included — in every object's
// snapshot. Restart replays the tail after the anchor, skipping at each
// object the records at or below that object's checkpoint LSN; segments
// wholly at or below the anchor of a *durable* checkpoint are dead and may
// be truncated (DESIGN.md §4).
//
// The image is written fail-atomically: temp file + sync + rename + parent
// directory fsync, so a crash at any point leaves either the old set of
// checkpoints or the old set plus the complete new one — never a torn
// file under a live checkpoint name. Loading falls back from a torn newest
// image to the previous one, which is always sufficient: truncation
// against the newer anchor can only have run after the newer image became
// durable and intact.

#ifndef CCR_TXN_CHECKPOINT_H_
#define CCR_TXN_CHECKPOINT_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "store/object_store.h"
#include "txn/journal.h"
#include "txn/journal_io.h"

namespace ccr {

class TxnManager;

// Decoded contents of one checkpoint image. A default-constructed image
// (anchor 0, no objects) means "no checkpoint: replay everything".
struct CheckpointImage {
  struct ObjectEntry {
    ObjectId id;
    // Registered factory for a dynamically created object (restart
    // re-instantiates it through the manager's factory registry before
    // installing the state); empty for eagerly registered objects.
    std::string factory;
    Lsn lsn = kNoLsn;     // last commit LSN the encoded state reflects
    std::string encoded;  // ADT state-codec bytes (may be empty)
  };

  Lsn anchor = 0;      // journal high LSN at capture; tail replay starts after
  TxnId max_txn = 0;   // highest assigned txn id at capture
  std::vector<ObjectEntry> objects;
};

// Textual payload of a checkpoint image (framed with FrameBlob on disk):
//
//   ckpt <anchor> <max_txn>
//   obj <id> <lsn> <encoded>
//   dyn <id> <factory> <lsn> <encoded>
//   ...
//
// `obj` lines are eagerly registered objects; `dyn` lines carry the
// factory that re-instantiates a dynamically created object on restart.
// `encoded` is everything after the last header token (newline-free,
// possibly empty). Object ids and factory names must satisfy
// IsJournalName (txn/journal_format.h).
std::string EncodeCheckpointPayload(const CheckpointImage& image);
StatusOr<CheckpointImage> DecodeCheckpointPayload(std::string_view payload);

// File name "checkpoint.<anchor>" (zero-padded so lexicographic order is
// numeric order).
std::string CheckpointFileName(Lsn anchor);

// --- Store-backed checkpoint codec -----------------------------------------
//
// With an ObjectStore attached (CheckpointerOptions::store), checkpoints
// live as one store key per object plus one metadata key, instead of (or in
// addition to) the monolithic checkpoint.<anchor> file:
//
//   key "o:<id>"  ->  "img <lsn> <factory-or-'-'> <encoded>"
//   key "m"       ->  "meta <anchor> <max_txn>"
//
// The same keys are written by cold-object eviction (TxnManager::
// EvictObject), which is what makes checkpoints incremental: an evicted
// object's store image is current by construction (snapshotted under the
// object mutex, written and flipped evicted under the manager's store mutex
// after its journal LSN became durable, and frozen while evicted), so a
// checkpoint skips it — both objects seen evicted during the snapshot walk
// and objects evicted between the walk and the store batch — and re-Puts
// only resident objects. The factory
// token is "-" for eagerly registered objects (factory names are journal
// names, and Write refuses a factory named "-", so the sentinel cannot
// collide).
//
// A checkpoint is durable when the batch carrying the meta key syncs; the
// store's append-order durability property then also covers every earlier
// buffered eviction Put and drop Delete. Journal truncation must only ever
// be keyed to anchors from durable meta records (or durable checkpoint
// files) — never to eviction images alone.

// "o:<id>" — the store key holding `id`'s newest encoded state.
std::string StoreObjectKey(const ObjectId& id);

// The store key of the checkpoint metadata record.
inline constexpr std::string_view kStoreMetaKey = "m";

// "img <lsn> <factory-or-'-'> <encoded>" and back. `factory` may be empty
// (encoded as "-"); `encoded` is the ADT state codec output (newline-free,
// possibly empty, spaces allowed). DecodeStoreObjectValue leaves
// ObjectEntry::id unset — the id lives in the key.
std::string EncodeStoreObjectValue(Lsn lsn, const std::string& factory,
                                   const std::string& encoded);
StatusOr<CheckpointImage::ObjectEntry> DecodeStoreObjectValue(
    std::string_view value);

// "meta <anchor> <max_txn>" and back (decoded into image.anchor/max_txn).
std::string EncodeStoreMetaValue(Lsn anchor, TxnId max_txn);
Status DecodeStoreMetaValue(std::string_view value, CheckpointImage* image);

// Assembles a CheckpointImage from the store's object and meta keys. A
// store without a meta key yields the empty image (anchor 0, no objects):
// eviction images may precede the first checkpoint, and without a durable
// anchor they are only a cache — the journal remains authoritative, so the
// caller must fall back to file images / full replay.
StatusOr<CheckpointImage> LoadCheckpointFromStore(ObjectStore* store);

struct CheckpointerOptions {
  // Durable checkpoints retained after a successful write; older ones are
  // garbage-collected. Must be >= 1; the default keeps one fallback.
  size_t keep = 2;
  // Optional fault injection (ckpt.before_tmp, ckpt.torn_tmp,
  // ckpt.before_tmp_sync, ckpt.before_rename, ckpt.before_dirsync,
  // ckpt.before_gc). Not owned; may be shared with a SegmentedFileSink.
  CrashPoints* crash = nullptr;
  // Persistent object-store backend. When set, Write publishes the
  // checkpoint as one store batch — per-object "o:<id>" Puts for RESIDENT
  // objects only (evicted objects' store images are already current), plus
  // the meta key — applied with sync durability under the manager's store
  // mutex. Must be the same store attached to the manager
  // (TxnManager::set_object_store). Not owned.
  ObjectStore* store = nullptr;
  // With a store attached, also write the monolithic checkpoint.<anchor>
  // file (reading evicted objects' images back from the store to complete
  // it). Default off: the store alone carries the checkpoint, and Write
  // skips the file entirely — including its GC.
  bool also_write_file = false;
  // Test-only: runs after the snapshot walk and before the image is
  // published — the window where commits, evictions, and drops race a
  // fuzzy checkpoint. Production callers leave it unset. (Value-initialized
  // like every other member, so an aggregate initializer may omit it.)
  std::function<void()> after_walk{};
};

// Writes and loads checkpoint images in a journal directory.
class Checkpointer {
 public:
  Checkpointer(std::string dir, CheckpointerOptions options = {});

  // Snapshots every object of `manager` and publishes the checkpoint:
  // without a store, as the fail-atomic checkpoint.<anchor> file; with a
  // store (options.store), as one synced store batch (resident Puts + the
  // meta key), optionally plus the file (options.also_write_file).
  // `anchor` MUST have been read from the journal (its high LSN) before
  // this call — the caller owns that ordering; Write cannot reconstruct
  // it. Before publishing, Write waits until the manager's pipeline (if
  // any) has made the anchor and every snapshotted LSN durable; a
  // fail-stopped pipeline fails the write with its status and nothing is
  // published. kNotSupported if any object's ADT lacks a state codec
  // (the system then keeps full-journal replay). On success the image is
  // durable and, on the file path, older checkpoints beyond options.keep
  // are garbage-collected. Returns the anchor written.
  StatusOr<Lsn> Write(TxnManager* manager, Lsn anchor);

  // Decodes the newest intact checkpoint in `dir`; falls back to older
  // images when the newest is torn or corrupt, and returns the empty image
  // (anchor 0) when none exists.
  static StatusOr<CheckpointImage> LoadNewest(const std::string& dir);

  const std::string& dir() const { return dir_; }

 private:
  const std::string dir_;
  const CheckpointerOptions options_;
};

}  // namespace ccr

#endif  // CCR_TXN_CHECKPOINT_H_
