// Copyright 2026 The ccr Authors.

#include "txn/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/adt.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"
#include "txn/txn_manager.h"

namespace ccr {
namespace {

constexpr std::string_view kCheckpointPrefix = "checkpoint.";
constexpr std::string_view kCheckpointTmp = "checkpoint.tmp";

// Parses "checkpoint.<digits>" into its anchor; nullopt for other names
// (including checkpoint.tmp).
std::optional<Lsn> ParseCheckpointAnchor(std::string_view name) {
  Lsn anchor = 0;
  if (name.substr(0, kCheckpointPrefix.size()) != kCheckpointPrefix ||
      !ParseDecimal(name.substr(kCheckpointPrefix.size()), &anchor)) {
    return std::nullopt;
  }
  return anchor;
}

// Checkpoint files of `dir`, newest (highest anchor) first.
StatusOr<std::vector<std::pair<Lsn, std::string>>> ListCheckpoints(
    const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<Lsn, std::string>> found;
  for (const std::string& name : *names) {
    if (const std::optional<Lsn> anchor = ParseCheckpointAnchor(name)) {
      found.emplace_back(*anchor, dir + "/" + name);
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

Status SimulatedCrash(std::string_view point) {
  return Status::Unavailable(
      StrFormat("simulated crash at %.*s", static_cast<int>(point.size()),
                point.data()));
}

bool CrashFires(CrashPoints* crash, std::string_view point) {
  return crash != nullptr && crash->Hit(point);
}

// Splits `*rest` at its next space: `*field` receives the non-empty bytes
// before it. False when no space follows or the field would be empty.
bool NextField(std::string_view* rest, std::string_view* field) {
  const size_t end = rest->find(' ');
  if (end == std::string_view::npos || end == 0) return false;
  *field = rest->substr(0, end);
  rest->remove_prefix(end + 1);
  return true;
}

// "<tag> <u64> <u64>", nothing after — the checkpoint and store meta
// headers.
bool ParseHeader(std::string_view line, std::string_view tag, Lsn* anchor,
                 TxnId* max_txn) {
  std::string_view token, anchor_token, max_token;
  return NextToken(&line, &token) && token == tag &&
         NextToken(&line, &anchor_token) &&
         ParseDecimal(anchor_token, anchor) &&
         NextToken(&line, &max_token) && ParseDecimal(max_token, max_txn) &&
         line.empty();
}

}  // namespace

std::string EncodeCheckpointPayload(const CheckpointImage& image) {
  // Built with raw appends, never %s/c_str(): the encoded state is opaque
  // codec output, and a c_str()-based format truncates it at the first NUL
  // byte — producing a frame whose CRC is valid but whose payload silently
  // lost state. (The decoder is NUL-transparent too.)
  std::string out = "ckpt ";
  AppendDecimal(&out, image.anchor);
  out += ' ';
  AppendDecimal(&out, image.max_txn);
  out += '\n';
  for (const CheckpointImage::ObjectEntry& entry : image.objects) {
    if (entry.factory.empty()) {
      out += "obj ";
      out += entry.id;
    } else {
      out += "dyn ";
      out += entry.id;
      out += ' ';
      out += entry.factory;
    }
    out += ' ';
    AppendDecimal(&out, entry.lsn);
    out += ' ';
    out += entry.encoded;
    out += '\n';
  }
  return out;
}

StatusOr<CheckpointImage> DecodeCheckpointPayload(std::string_view payload) {
  std::string_view line;
  if (!NextLine(&payload, &line)) {
    return Status::Internal("empty checkpoint payload");
  }
  CheckpointImage image;
  if (!ParseHeader(line, "ckpt", &image.anchor, &image.max_txn)) {
    return Status::Internal("checkpoint payload must start 'ckpt "
                            "<anchor> <max_txn>'");
  }
  image.objects.reserve(static_cast<size_t>(
      std::count(payload.begin(), payload.end(), '\n')));
  while (NextLine(&payload, &line)) {
    if (line.empty()) continue;
    // "obj <id> <lsn> <encoded>" / "dyn <id> <factory> <lsn> <encoded>":
    // encoded is everything after the last header token and may be empty.
    const std::string_view kind = line.substr(0, 4);
    const bool dynamic = kind == "dyn ";
    if (!dynamic && kind != "obj ") {
      return Status::Internal("malformed checkpoint line: " +
                              std::string(line));
    }
    std::string_view rest = line.substr(4);
    std::string_view id, factory, lsn_token;
    if (!NextField(&rest, &id) || !IsJournalName(id)) {
      return Status::Internal("checkpoint obj line missing id: " +
                              std::string(line));
    }
    if (dynamic && (!NextField(&rest, &factory) || !IsJournalName(factory))) {
      return Status::Internal("checkpoint dyn line missing factory: " +
                              std::string(line));
    }
    CheckpointImage::ObjectEntry& entry = image.objects.emplace_back();
    if (!NextField(&rest, &lsn_token) ||
        !ParseDecimal(lsn_token, &entry.lsn)) {
      return Status::Internal("checkpoint obj line has bad LSN or no "
                              "state: " + std::string(line));
    }
    entry.id = ObjectId(id);
    entry.factory = std::string(factory);
    entry.encoded = std::string(rest);
  }
  return image;
}

std::string CheckpointFileName(Lsn anchor) {
  return StrFormat("%.*s%012llu", static_cast<int>(kCheckpointPrefix.size()),
                   kCheckpointPrefix.data(),
                   static_cast<unsigned long long>(anchor));
}

std::string StoreObjectKey(const ObjectId& id) { return "o:" + id; }

std::string EncodeStoreObjectValue(Lsn lsn, const std::string& factory,
                                   const std::string& encoded) {
  // Raw appends for the same NUL-transparency reason as the file payload.
  std::string out = "img ";
  AppendDecimal(&out, lsn);
  out += ' ';
  if (factory.empty()) {
    out += '-';
  } else {
    out += factory;
  }
  out += ' ';
  out += encoded;
  return out;
}

StatusOr<CheckpointImage::ObjectEntry> DecodeStoreObjectValue(
    std::string_view value) {
  constexpr std::string_view kImgPrefix = "img ";
  if (value.substr(0, kImgPrefix.size()) != kImgPrefix) {
    return Status::Internal("store object value missing 'img' header");
  }
  std::string_view rest = value.substr(kImgPrefix.size());
  std::string_view lsn_token, factory;
  CheckpointImage::ObjectEntry entry;
  if (!NextField(&rest, &lsn_token) || !ParseDecimal(lsn_token, &entry.lsn)) {
    return Status::Internal("store object value has a bad or missing LSN");
  }
  if (!NextField(&rest, &factory)) {
    return Status::Internal("store object value missing factory token");
  }
  if (factory != "-") entry.factory = std::string(factory);
  entry.encoded = std::string(rest);
  return entry;
}

std::string EncodeStoreMetaValue(Lsn anchor, TxnId max_txn) {
  std::string out = "meta ";
  AppendDecimal(&out, anchor);
  out += ' ';
  AppendDecimal(&out, max_txn);
  return out;
}

Status DecodeStoreMetaValue(std::string_view value, CheckpointImage* image) {
  if (!ParseHeader(value, "meta", &image->anchor, &image->max_txn)) {
    return Status::Internal(
        "store meta value must be 'meta <anchor> <max_txn>'");
  }
  return Status::OK();
}

StatusOr<CheckpointImage> LoadCheckpointFromStore(ObjectStore* store) {
  CCR_CHECK(store != nullptr);
  CheckpointImage image;
  bool have_meta = false;
  CCR_RETURN_IF_ERROR(store->Scan(
      [&](const std::string& key, const std::string& value) -> Status {
        if (key == kStoreMetaKey) {
          CCR_RETURN_IF_ERROR(DecodeStoreMetaValue(value, &image));
          have_meta = true;
          return Status::OK();
        }
        if (key.size() <= 2 || key.rfind("o:", 0) != 0) {
          return Status::Internal(
              StrFormat("unrecognized store key '%s'", key.c_str()));
        }
        StatusOr<CheckpointImage::ObjectEntry> entry =
            DecodeStoreObjectValue(value);
        if (!entry.ok()) return entry.status();
        entry->id = key.substr(2);
        image.objects.push_back(std::move(*entry));
        return Status::OK();
      }));
  // Object images without a durable meta anchor are only a cache (eviction
  // may run before the first checkpoint): the journal stays authoritative,
  // so report "no checkpoint" and let the caller replay in full.
  if (!have_meta) return CheckpointImage{};
  return image;
}

Checkpointer::Checkpointer(std::string dir, CheckpointerOptions options)
    : dir_(std::move(dir)), options_(options) {
  CCR_CHECK(options_.keep >= 1);
}

StatusOr<Lsn> Checkpointer::Write(TxnManager* manager, Lsn anchor) {
  CCR_CHECK(manager != nullptr);
  // Snapshot every object. The anchor was captured before this walk, so
  // each snapshot includes every record with lsn <= anchor (plus possibly
  // later ones — that is the fuzziness; the per-object LSN records exactly
  // how much).
  CheckpointImage image;
  image.anchor = anchor;
  image.max_txn = manager->max_assigned_txn();
  // resident[i]: image.objects[i] carries freshly snapshotted state. An
  // evicted object contributes an entry with no state — its store image is
  // current by construction (eviction wrote it under the object mutex after
  // its LSN became durable, and the state is frozen while evicted), so the
  // store path skips its Put and the file path reads the bytes back.
  std::vector<bool> resident;
  Lsn newest = anchor;  // highest LSN the image will carry
  for (AtomicObject* obj : manager->objects()) {
    if (!obj->adt().supports_state_codec()) {
      return Status::NotSupported(StrFormat(
          "object %s's ADT %s has no state codec — cannot checkpoint",
          obj->id().c_str(), obj->adt().name().c_str()));
    }
    if (!IsJournalName(obj->id())) {
      return Status::InvalidArgument(StrFormat(
          "object id '%s' is not a journal name — not checkpointable",
          obj->id().c_str()));
    }
    if (!obj->factory_name().empty() && !IsJournalName(obj->factory_name())) {
      return Status::InvalidArgument(StrFormat(
          "factory name '%s' is not a journal name — not checkpointable",
          obj->factory_name().c_str()));
    }
    if (options_.store != nullptr && obj->factory_name() == "-") {
      return Status::InvalidArgument(
          "factory name '-' collides with the store codec's empty-factory "
          "sentinel — not checkpointable to a store");
    }
    AtomicObject::CheckpointSnapshot snap = obj->SnapshotForCheckpoint();
    CheckpointImage::ObjectEntry entry;
    entry.id = obj->id();
    entry.factory = obj->factory_name();
    entry.lsn = snap.lsn;
    newest = std::max(newest, snap.lsn);
    if (snap.state == nullptr) {
      if (options_.store == nullptr) {
        return Status::IllegalState(StrFormat(
            "object %s is evicted but no object store is attached",
            obj->id().c_str()));
      }
      resident.push_back(false);
    } else {
      entry.encoded = obj->adt().EncodeState(*snap.state);
      if (entry.encoded.find('\n') != std::string::npos) {
        return Status::Internal(StrFormat(
            "ADT %s state codec produced a newline",
            obj->adt().name().c_str()));
      }
      resident.push_back(true);
    }
    image.objects.push_back(std::move(entry));
  }
  if (options_.after_walk) options_.after_walk();
  // Publish nothing the journal could still lose: the walk took each
  // object at its last SEQUENCED LSN, and an image LSN above the durable
  // journal would be reused after restart, then skipped as covered. The
  // wait cuts the linger; a fail-stopped pipeline fails it.
  if (GroupCommitPipeline* pipeline = manager->commit_pipeline()) {
    CCR_RETURN_IF_ERROR(pipeline->WaitWatermark(newest));
  }

  if (options_.store != nullptr) {
    {
      // The manager's store mutex serializes this batch against eviction
      // Put+flips and drop Deletes. The per-Put rechecks close two races
      // with the snapshot walk:
      //  - resurrection: a drop that raced the walk has already retired
      //    its object from the directory, and its key Delete runs under
      //    this same mutex — re-Putting the snapshotted image would
      //    recreate the key after journal truncation discards the drop
      //    record;
      //  - staleness: an object committed and evicted since the walk
      //    carries a NEWER store image than the snapshot (eviction writes
      //    the image and flips the evicted bit inside one store-mutex
      //    critical section, at the object's last committed LSN).
      //    Overwriting it with the older snapshot would fail every later
      //    fault-in (image LSN != last committed LSN) until restart, and
      //    later checkpoints could never repair the key because evicted
      //    objects' Puts are skipped.
      std::lock_guard<std::mutex> lock(manager->store_mutex());
      StoreWriteBatch batch;
      for (size_t i = 0; i < image.objects.size(); ++i) {
        if (!resident[i]) continue;
        const CheckpointImage::ObjectEntry& entry = image.objects[i];
        AtomicObject* live = manager->object(entry.id);
        if (live == nullptr || live->evicted()) continue;
        batch.Put(StoreObjectKey(entry.id),
                  EncodeStoreObjectValue(entry.lsn, entry.factory,
                                         entry.encoded));
      }
      batch.Put(std::string(kStoreMetaKey),
                EncodeStoreMetaValue(anchor, image.max_txn));
      // The sync that lands the meta key is the durability point; by the
      // store's append-order property it also hardens every earlier
      // buffered eviction Put and drop Delete.
      CCR_RETURN_IF_ERROR(options_.store->ApplyBatch(
          batch, ObjectStore::Durability::kSync));
    }
    if (!options_.also_write_file) return anchor;
    // Complete the monolithic file: evicted objects' bytes come back from
    // the store. A key deleted meanwhile means the object was dropped —
    // its entry simply leaves the file image (the tail's drop record
    // handles replay either way). A newer image (fault-in, mutate,
    // re-evict) is fine: the decoded (lsn, state) pair is taken together,
    // which is exactly the fuzzy-snapshot contract.
    std::vector<CheckpointImage::ObjectEntry> kept;
    kept.reserve(image.objects.size());
    for (size_t i = 0; i < image.objects.size(); ++i) {
      if (resident[i]) {
        kept.push_back(std::move(image.objects[i]));
        continue;
      }
      StatusOr<std::string> value =
          options_.store->Get(StoreObjectKey(image.objects[i].id));
      if (!value.ok()) {
        if (value.status().code() == StatusCode::kNotFound) continue;
        return value.status();
      }
      StatusOr<CheckpointImage::ObjectEntry> decoded =
          DecodeStoreObjectValue(*value);
      if (!decoded.ok()) return decoded.status();
      CheckpointImage::ObjectEntry entry = std::move(image.objects[i]);
      entry.lsn = decoded->lsn;
      entry.encoded = std::move(decoded->encoded);
      kept.push_back(std::move(entry));
    }
    image.objects = std::move(kept);
  }
  const std::string framed = FrameBlob(EncodeCheckpointPayload(image));

  // Fail-atomic publication: tmp + sync + rename + dirsync. Until the
  // rename the live name set is unchanged; after the dirsync the new image
  // is durable under its final name. No crash point leaves a torn file
  // under a checkpoint.<anchor> name.
  const std::string tmp = dir_ + "/" + std::string(kCheckpointTmp);
  const std::string final_path = dir_ + "/" + CheckpointFileName(anchor);
  if (CrashFires(options_.crash, "ckpt.before_tmp")) {
    return SimulatedCrash("ckpt.before_tmp");
  }
  StatusOr<std::unique_ptr<FileSink>> sink = FileSink::Open(tmp);
  if (!sink.ok()) return sink.status();
  if (CrashFires(options_.crash, "ckpt.torn_tmp")) {
    // The crash interrupted the image write: leave half the frame behind.
    // It sits under the tmp name, which recovery never reads.
    (void)(*sink)->Append(
        std::string_view(framed).substr(0, framed.size() / 2));
    (void)(*sink)->Close();
    return SimulatedCrash("ckpt.torn_tmp");
  }
  CCR_RETURN_IF_ERROR((*sink)->Append(framed));
  if (CrashFires(options_.crash, "ckpt.before_tmp_sync")) {
    (void)(*sink)->Close();
    return SimulatedCrash("ckpt.before_tmp_sync");
  }
  CCR_RETURN_IF_ERROR((*sink)->Sync());
  CCR_RETURN_IF_ERROR((*sink)->Close());
  if (CrashFires(options_.crash, "ckpt.before_rename")) {
    return SimulatedCrash("ckpt.before_rename");
  }
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::Internal(StrFormat("cannot rename %s to %s: %s",
                                      tmp.c_str(), final_path.c_str(),
                                      std::strerror(errno)));
  }
  if (CrashFires(options_.crash, "ckpt.before_dirsync")) {
    return SimulatedCrash("ckpt.before_dirsync");
  }
  CCR_RETURN_IF_ERROR(SyncDir(dir_));

  // The image is durable; everything below is garbage collection, whose
  // failure modes only leave extra old checkpoints behind.
  if (CrashFires(options_.crash, "ckpt.before_gc")) {
    return SimulatedCrash("ckpt.before_gc");
  }
  StatusOr<std::vector<std::pair<Lsn, std::string>>> checkpoints =
      ListCheckpoints(dir_);
  if (!checkpoints.ok()) return checkpoints.status();
  // Best-effort across the whole retention list: one unremovable image must
  // not shield older ones from collection, and any successful removal still
  // gets the directory sync that makes it durable. The first error is
  // reported after the sweep completes.
  Status gc_error = Status::OK();
  bool removed = false;
  for (size_t i = options_.keep; i < checkpoints->size(); ++i) {
    if (std::remove((*checkpoints)[i].second.c_str()) != 0) {
      if (gc_error.ok()) {
        gc_error = Status::Internal(
            StrFormat("cannot remove old checkpoint %s: %s",
                      (*checkpoints)[i].second.c_str(), std::strerror(errno)));
      }
      continue;
    }
    removed = true;
  }
  if (removed) {
    const Status sync = SyncDir(dir_);
    if (gc_error.ok()) gc_error = sync;
  }
  CCR_RETURN_IF_ERROR(gc_error);
  return anchor;
}

StatusOr<CheckpointImage> Checkpointer::LoadNewest(const std::string& dir) {
  StatusOr<std::vector<std::pair<Lsn, std::string>>> checkpoints =
      ListCheckpoints(dir);
  if (!checkpoints.ok()) return checkpoints.status();
  Status last_error = Status::OK();
  for (const auto& [anchor, path] : *checkpoints) {
    StatusOr<std::string> file = ReadFileImage(path);
    if (!file.ok()) {
      last_error = file.status();
      continue;
    }
    StatusOr<std::string> payload = UnframeBlob(*file);
    if (!payload.ok()) {
      // Torn or rotted image. Fall back to the previous checkpoint: any
      // truncation keyed to this anchor can only have run after this image
      // was durable AND intact, so the older image still has its tail.
      last_error = payload.status();
      continue;
    }
    StatusOr<CheckpointImage> image = DecodeCheckpointPayload(*payload);
    if (!image.ok()) {
      last_error = image.status();
      continue;
    }
    if (image->anchor != anchor) {
      last_error = Status::Internal(StrFormat(
          "checkpoint %s declares anchor %llu", path.c_str(),
          static_cast<unsigned long long>(image->anchor)));
      continue;
    }
    return image;
  }
  if (!checkpoints->empty() && !last_error.ok()) {
    // Every image on disk is damaged — surface that rather than silently
    // replaying from nothing (the journal was truncated against one of
    // these anchors).
    return last_error;
  }
  return CheckpointImage{};
}

}  // namespace ccr
