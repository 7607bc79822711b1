// Copyright 2026 The ccr Authors.
//
// Unit tests for the durable journal's record format and crash-image
// scanner: frame round-trips, CRC32C vectors, torn-write truncation at
// every byte offset, and the tail-vs-mid-journal corruption distinction;
// escaped string literals (hostile KV keys survive restart in either
// record order) and the byte-exact format of records without them; and a
// decoder property test — randomized round trips over every library ADT,
// plus every truncation and single-byte change of commit, lifecycle and
// checkpoint payloads decoded from exactly-sized heap copies, so the
// sanitizer builds see any overread.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adt/bank_account.h"
#include "adt/kv_store.h"
#include "adt/registry.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "core/conflict_relation.h"
#include "txn/checkpoint.h"
#include "txn/journal_format.h"
#include "txn/journal_io.h"
#include "txn/txn_manager.h"
#include "txn/uip_recovery.h"

namespace ccr {
namespace {

Operation Op(const Invocation& inv, Value result) {
  return Operation(inv, std::move(result));
}

// A few records with every value flavor the payload encoding must carry:
// ints (args), strings (withdraw results, kv keys), unit (deposit results).
std::vector<Journal::CommitRecord> SampleRecords() {
  auto ba = MakeBankAccount();
  auto kv = MakeKvStore();
  std::vector<Journal::CommitRecord> records;
  records.push_back(
      {1, {Op(ba->DepositInv(10), Value("ok")), Op(ba->BalanceInv(), Value(int64_t{10}))}});
  records.push_back({2, {Op(ba->WithdrawInv(3), Value("ok"))}});
  records.push_back(
      {3, {Op(kv->PutInv("alpha", -7), Value("ok")), Op(kv->GetInv("alpha"), Value(int64_t{-7}))}});
  return records;
}

std::string ImageOf(const std::vector<Journal::CommitRecord>& records) {
  std::string image;
  for (const auto& record : records) image += EncodeCommitRecord(record);
  return image;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / iSCSI test vectors.
  EXPECT_EQ(Crc32c("", 0), 0u);
  const uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8a9136aau);
  uint8_t ones[32];
  for (uint8_t& b : ones) b = 0xff;
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62a8ab43u);
  uint8_t ascending[32];
  for (size_t i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46dd794eu);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "the impact of recovery on concurrency control";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t whole = Crc32c(data.data(), data.size());
    const uint32_t pieced = Crc32cExtend(
        Crc32c(data.data(), split), data.data() + split, data.size() - split);
    EXPECT_EQ(whole, pieced) << "split at " << split;
  }
}

TEST(JournalFormatTest, PayloadRoundTrips) {
  for (const Journal::CommitRecord& record : SampleRecords()) {
    StatusOr<Journal::CommitRecord> decoded =
        DecodeCommitPayload(EncodeCommitPayload(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->txn, record.txn);
    EXPECT_EQ(decoded->ops, record.ops);
  }
}

TEST(JournalFormatTest, MalformedPayloadsRejected) {
  EXPECT_FALSE(DecodeCommitPayload("").ok());
  EXPECT_FALSE(DecodeCommitPayload("nonsense 1\n").ok());
  EXPECT_FALSE(DecodeCommitPayload("txn 0\n").ok());  // invalid txn id
  EXPECT_FALSE(DecodeCommitPayload("txn 1\nop BA\n").ok());
  EXPECT_FALSE(DecodeCommitPayload("txn 1\nop BA 0 deposit\n").ok());
  EXPECT_FALSE(DecodeCommitPayload("txn 1\nop BA 0 deposit q:7\n").ok());
}

// Inputs the encoders never write, which a stream parser let through
// ("txn -1" wrapped to txn 18446744073709551615; trailing tokens were
// ignored). Whole-token decoding refuses them.
TEST(JournalFormatTest, NonCanonicalHeadersRejected) {
  for (const char* payload :
       {"txn -1\n", "txn 1 2\n", "txn 1x\n", "txn +1\n",
        "txn 18446744073709551616\n", "txn 1\nop BA 0x deposit s:ok\n",
        "txn 1\nop BA 0 deposit s:ok%\n", "txn 1\nop B\x01" "A 0 n u:\n",
        "create a\n", "create a f g\n", "drop\n", "drop a b\n",
        "create a\x7f f\n"}) {
    EXPECT_FALSE(DecodeEntryPayload(payload).ok()) << payload;
  }
  // Inter-token whitespace stays free-form, as before.
  StatusOr<Journal::Entry> spaced =
      DecodeEntryPayload("txn  3 \r\nop\tBA 0 deposit  s:ok i:5\n\n");
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  EXPECT_EQ(spaced->commit.txn, 3u);
  ASSERT_EQ(spaced->commit.ops.size(), 1u);
  EXPECT_EQ(spaced->commit.ops[0].args()[0], Value(int64_t{5}));
}

// Records without special strings keep their exact pre-escaping bytes —
// frame header, CRC and payload — so existing journals and every
// benchmark journal byte stay as they were.
TEST(JournalFormatTest, RecordBytesAreUnchanged) {
  auto ba = MakeBankAccount();
  const Journal::CommitRecord record{
      42,
      {Op(ba->DepositInv(10), Value("ok")), Op(ba->WithdrawInv(3), Value("no")),
       Op(ba->BalanceInv(), Value(int64_t{-7}))}};
  const std::string payload =
      "txn 42\n"
      "op BA 0 deposit s:ok i:10\n"
      "op BA 1 withdraw s:no i:3\n"
      "op BA 2 balance i:-7\n";
  EXPECT_EQ(EncodeCommitPayload(record), payload);
  EXPECT_EQ(EncodeCommitRecord(record),
            std::string("\x50\x00\x00\x00\x8a\xd1\x99\x65", 8) + payload);

  LifecycleRecord create;
  create.kind = LifecycleRecord::Kind::kCreate;
  create.object = "acct-7";
  create.factory = "bank";
  EXPECT_EQ(EncodeLifecyclePayload(create), "create acct-7 bank\n");
  LifecycleRecord drop;
  drop.kind = LifecycleRecord::Kind::kDrop;
  drop.object = "acct-7";
  EXPECT_EQ(EncodeLifecyclePayload(drop), "drop acct-7\n");

  // Unit, bool, extreme ints and the empty string keep their literals.
  const Journal::CommitRecord extremes{
      std::numeric_limits<uint64_t>::max(),
      {Op(Invocation("X", -3, "f",
                     {Value(std::numeric_limits<int64_t>::min()),
                      Value(std::numeric_limits<int64_t>::max()), Value(true),
                      Value(false), Value(""), Value::MakeUnit()}),
          Value::MakeUnit())}};
  EXPECT_EQ(EncodeCommitPayload(extremes),
            "txn 18446744073709551615\n"
            "op X -3 f u: i:-9223372036854775808 i:9223372036854775807 "
            "b:true b:false s: u:\n");
}

// KV keys holding the token and line separators, or the escape byte
// itself. Unescaped, "a b" split into extra tokens and "x\ny" into an
// extra line, so the record failed to decode.
const std::vector<std::string>& HostileKeys() {
  static const std::vector<std::string> keys = {"a b", "x\ny", "50%", ""};
  return keys;
}

TEST(JournalFormatTest, HostileStringLiteralsRoundTrip) {
  auto kv = MakeKvStore();
  for (const std::string& key : HostileKeys()) {
    const Journal::CommitRecord record{
        7,
        {Op(kv->PutInv(key, 5), Value("ok")),
         Op(kv->GetInv(key), Value(int64_t{5})), Op(kv->GetInv("c"), Value(key))}};
    const std::string payload = EncodeCommitPayload(record);
    StatusOr<Journal::CommitRecord> decoded = DecodeCommitPayload(payload);
    ASSERT_TRUE(decoded.ok()) << "key '" << key << "': "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->ops, record.ops) << "key '" << key << "'";
    EXPECT_EQ(std::count(payload.begin(), payload.end(), '\n'), 4)
        << "one line per op";
  }
}

// An acknowledged put of a hostile key next to an ordinary one, restarted
// from the crash image in both record orders. Before escaping, the first
// order refused the image as corrupt mid-journal and the second silently
// truncated the acknowledged put as if it were a torn tail.
TEST(JournalFormatTest, HostileKeysSurviveRestartInEitherOrder) {
  for (const std::string& key : HostileKeys()) {
    for (const bool hostile_first : {true, false}) {
      auto kv = MakeKvStore();
      const Journal::CommitRecord hostile{1, {Op(kv->PutInv(key, 5), Value("ok"))}};
      const Journal::CommitRecord plain{2, {Op(kv->PutInv("c", 1), Value("ok"))}};
      const std::string image =
          hostile_first ? EncodeCommitRecord(hostile) + EncodeCommitRecord(plain)
                        : EncodeCommitRecord(plain) + EncodeCommitRecord(hostile);
      TxnManager manager;
      manager.AddObject(kv->object_name(), kv, MakeNrbcConflict(kv),
                        std::make_unique<UipRecovery>(kv));
      StatusOr<RestartSummary> summary = manager.RestartFromImage(image);
      ASSERT_TRUE(summary.ok()) << "key '" << key << "': "
                                << summary.status().ToString();
      EXPECT_FALSE(summary->scan.corrupt_tail) << "key '" << key << "'";
      EXPECT_EQ(summary->tail_records, 2u) << "key '" << key << "'";
      KvState expected;
      expected.entries[key] = 5;
      expected.entries["c"] = 1;
      EXPECT_TRUE(manager.object(kv->object_name())
                      ->CommittedState()
                      ->Equals(TypedState<KvState>(expected)))
          << "key '" << key << "' hostile_first=" << hostile_first;
    }
  }
}

TEST(JournalFormatTest, CleanImageScans) {
  const auto records = SampleRecords();
  RecoveryReport report;
  StatusOr<Journal> scanned = ScanJournalImage(ImageOf(records), &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(report.records_replayed, records.size());
  EXPECT_EQ(report.bytes_truncated, 0u);
  EXPECT_FALSE(report.corrupt_tail);
  const auto out = scanned->Records();
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].txn, records[i].txn);
    EXPECT_EQ(out[i].ops, records[i].ops);
  }
}

TEST(JournalFormatTest, EmptyImageScansToEmptyJournal) {
  RecoveryReport report;
  StatusOr<Journal> scanned = ScanJournalImage("", &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), 0u);
  EXPECT_EQ(report.bytes_truncated, 0u);
  EXPECT_FALSE(report.corrupt_tail);
}

// A crash can cut the image at ANY byte offset inside the final record;
// every cut must truncate exactly that record and keep the full prefix.
TEST(JournalFormatTest, TornTailTruncatedAtEveryByteOffset) {
  const auto records = SampleRecords();
  const std::string image = ImageOf(records);
  const size_t prefix_bytes =
      image.size() - EncodeCommitRecord(records.back()).size();
  for (size_t cut = prefix_bytes + 1; cut < image.size(); ++cut) {
    RecoveryReport report;
    StatusOr<Journal> scanned =
        ScanJournalImage(std::string_view(image).substr(0, cut), &report);
    ASSERT_TRUE(scanned.ok()) << "cut at " << cut;
    EXPECT_EQ(report.records_replayed, records.size() - 1) << "cut " << cut;
    EXPECT_EQ(report.bytes_truncated, cut - prefix_bytes) << "cut " << cut;
    EXPECT_TRUE(report.corrupt_tail) << "cut " << cut;
    EXPECT_EQ(scanned->size(), records.size() - 1);
  }
}

// Flipping any byte of the LAST record is tail corruption: the record's
// transaction never safely reached durability, so the tail truncates.
TEST(JournalFormatTest, CorruptTailByteTruncates) {
  const auto records = SampleRecords();
  const std::string image = ImageOf(records);
  const size_t tail_start =
      image.size() - EncodeCommitRecord(records.back()).size();
  for (size_t off = tail_start; off < image.size(); ++off) {
    std::string corrupted = image;
    FlipByte(&corrupted, off, 0x20);
    RecoveryReport report;
    StatusOr<Journal> scanned = ScanJournalImage(corrupted, &report);
    ASSERT_TRUE(scanned.ok()) << "flip at " << off;
    EXPECT_EQ(report.records_replayed, records.size() - 1) << "flip " << off;
    EXPECT_TRUE(report.corrupt_tail) << "flip " << off;
  }
}

// Flipping a byte of a NON-last record damages a prefix that was already
// durable — no truncation rule can repair that honestly, so the scan must
// reject the image loudly instead of silently dropping committed work.
TEST(JournalFormatTest, MidJournalCorruptionRejected) {
  const auto records = SampleRecords();
  const std::string image = ImageOf(records);
  const size_t mid_bytes = EncodeCommitRecord(records[0]).size() +
                           EncodeCommitRecord(records[1]).size();
  for (size_t off = 0; off < mid_bytes; ++off) {
    std::string corrupted = image;
    FlipByte(&corrupted, off, 0x20);
    RecoveryReport report;
    StatusOr<Journal> scanned = ScanJournalImage(corrupted, &report);
    ASSERT_FALSE(scanned.ok()) << "flip at " << off;
    EXPECT_EQ(scanned.status().code(), StatusCode::kInternal);
  }
}

TEST(JournalFormatTest, PureGarbageIsAllTail) {
  // An image of garbage contains no durable prefix: scan succeeds with
  // zero records and everything truncated.
  std::string garbage(257, '\xa5');
  RecoveryReport report;
  StatusOr<Journal> scanned = ScanJournalImage(garbage, &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(report.bytes_truncated, garbage.size());
  EXPECT_TRUE(report.corrupt_tail);
}

// ---------------------------------------------------------------------------
// Decoder property test
// ---------------------------------------------------------------------------

// Strings the literal escaping must carry: separators, the escape byte,
// NUL, DEL and high bytes, plus random bytes.
std::string RandomString(Random& rng) {
  static const char* const kPieces[] = {
      "", " ", "%", "%2", "%zz", "\n", "\r\n", "\t", "a b", "50%",
      "s:", "i:1", "op", "txn 1", "\xc3\xa9", "\xff", "\x7f"};
  std::string out;
  const size_t pieces = rng.Uniform(4);
  for (size_t i = 0; i < pieces; ++i) {
    if (rng.Bernoulli(0.3)) {
      out += static_cast<char>(rng.Next());  // any byte, NUL included
    } else {
      out += kPieces[rng.Uniform(sizeof(kPieces) / sizeof(kPieces[0]))];
    }
  }
  return out;
}

Value RandomValue(Random& rng) {
  switch (rng.Uniform(5)) {
    case 0: {
      static const int64_t kInts[] = {std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max(), 0,
                                      -1, 1};
      if (rng.Bernoulli(0.5)) return Value(kInts[rng.Uniform(5)]);
      return Value(static_cast<int64_t>(rng.Next()));
    }
    case 1:
      return Value(rng.Bernoulli(0.5));
    case 2:
      return Value::MakeUnit();
    default:
      return Value(RandomString(rng));
  }
}

// A journal name drawn from printable and high bytes.
std::string RandomName(Random& rng) {
  std::string out;
  const size_t len = 1 + rng.Uniform(6);
  for (size_t i = 0; i < len; ++i) {
    const char c = static_cast<char>(0x21 + rng.Uniform(0xff - 0x21));
    out += c == '\x7f' ? 'x' : c;
  }
  return out;
}

// Every library ADT's operations (codes and names from its universe), with
// the results and arguments replaced by random values of any type.
const std::vector<Operation>& LibraryOps() {
  static const std::vector<Operation> ops = [] {
    std::vector<Operation> all;
    for (const std::shared_ptr<Adt>& adt : AllAdts()) {
      for (const Operation& op : adt->Universe()) all.push_back(op);
    }
    return all;
  }();
  return ops;
}

Journal::Entry RandomCommit(Random& rng, size_t ops) {
  OpSeq seq;
  for (size_t i = 0; i < ops; ++i) {
    const Operation& base = LibraryOps()[rng.Uniform(LibraryOps().size())];
    std::vector<Value> args(base.args().size() + rng.Uniform(2));
    for (Value& arg : args) arg = RandomValue(rng);
    const ObjectId object = rng.Bernoulli(0.5) ? base.object() : RandomName(rng);
    seq.emplace_back(Invocation(object, base.code(), base.name(), std::move(args)),
                     RandomValue(rng));
  }
  return Journal::Entry::Commit(1 + rng.Uniform(std::numeric_limits<uint64_t>::max()),
                                std::move(seq));
}

Journal::Entry RandomLifecycle(Random& rng) {
  LifecycleRecord record;
  record.kind = rng.Bernoulli(0.5) ? LifecycleRecord::Kind::kCreate
                                   : LifecycleRecord::Kind::kDrop;
  record.object = RandomName(rng);
  if (record.kind == LifecycleRecord::Kind::kCreate) {
    record.factory = RandomName(rng);
  }
  return Journal::Entry::Lifecycle(std::move(record));
}

// A checkpoint image mixing obj and dyn lines, some with empty encodings.
CheckpointImage RandomImage(Random& rng) {
  CheckpointImage image;
  image.anchor = rng.Next();
  image.max_txn = rng.Next();
  const size_t objects = rng.Uniform(4);
  for (size_t i = 0; i < objects; ++i) {
    CheckpointImage::ObjectEntry entry;
    entry.id = RandomName(rng);
    if (rng.Bernoulli(0.5)) entry.factory = RandomName(rng);
    entry.lsn = rng.Bernoulli(0.2) ? std::numeric_limits<uint64_t>::max()
                                   : rng.Uniform(1000);
    if (rng.Bernoulli(0.7)) {
      entry.encoded = "i " + std::to_string(static_cast<int64_t>(rng.Next()));
      if (rng.Bernoulli(0.3)) entry.encoded += " %20 %";
    }
    image.objects.push_back(std::move(entry));
  }
  return image;
}

void ExpectSameEntry(const Journal::Entry& a, const Journal::Entry& b) {
  ASSERT_EQ(a.is_lifecycle, b.is_lifecycle);
  if (a.is_lifecycle) {
    EXPECT_EQ(a.lifecycle.kind, b.lifecycle.kind);
    EXPECT_EQ(a.lifecycle.object, b.lifecycle.object);
    EXPECT_EQ(a.lifecycle.factory, b.lifecycle.factory);
  } else {
    EXPECT_EQ(a.commit.txn, b.commit.txn);
    EXPECT_EQ(a.commit.ops, b.commit.ops);
  }
}

void ExpectSameImage(const CheckpointImage& a, const CheckpointImage& b) {
  EXPECT_EQ(a.anchor, b.anchor);
  EXPECT_EQ(a.max_txn, b.max_txn);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].id, b.objects[i].id);
    EXPECT_EQ(a.objects[i].factory, b.objects[i].factory);
    EXPECT_EQ(a.objects[i].lsn, b.objects[i].lsn);
    EXPECT_EQ(a.objects[i].encoded, b.objects[i].encoded);
  }
}

TEST(JournalCodecPropertyTest, EncodedEntriesAndImagesRoundTrip) {
  Random rng(0x5eed);
  for (int i = 0; i < 3000; ++i) {
    const Journal::Entry entry =
        i % 4 == 3 ? RandomLifecycle(rng)
                   : RandomCommit(rng, std::vector<size_t>{1, 2, 8}[i % 3]);
    const std::string payload = EncodeEntryPayload(entry);
    StatusOr<Journal::Entry> decoded = DecodeEntryPayload(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n"
                              << payload;
    ExpectSameEntry(*decoded, entry);
  }
  for (int i = 0; i < 500; ++i) {
    const CheckpointImage image = RandomImage(rng);
    StatusOr<CheckpointImage> decoded =
        DecodeCheckpointPayload(EncodeCheckpointPayload(image));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameImage(*decoded, image);
  }
}

// Decodes `bytes` from a heap buffer of exactly their size: any read past
// the end is a heap overflow the sanitizer builds report.
template <typename Decode>
void DecodeExact(std::string_view bytes, const Decode& decode) {
  std::unique_ptr<char[]> buffer(new char[bytes.size()]);
  if (!bytes.empty()) std::memcpy(buffer.get(), bytes.data(), bytes.size());
  decode(std::string_view(buffer.get(), bytes.size()));
}

// Every truncation and every single-byte change of a payload decodes to an
// entry or a non-OK status. What does decode is well formed: encoding it
// again decodes to the same entry.
TEST(JournalCodecPropertyTest, EveryTruncationAndByteChangeDecodesOrFails) {
  Random rng(0xfa11);
  std::vector<std::string> payloads;
  for (const size_t ops : {1, 2, 8}) {
    payloads.push_back(EncodeEntryPayload(RandomCommit(rng, ops)));
  }
  for (int i = 0; i < 2; ++i) payloads.push_back(EncodeEntryPayload(RandomLifecycle(rng)));
  const auto decode_entry = [](std::string_view bytes) {
    StatusOr<Journal::Entry> decoded = DecodeEntryPayload(bytes);
    if (!decoded.ok()) return;
    StatusOr<Journal::Entry> again =
        DecodeEntryPayload(EncodeEntryPayload(*decoded));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameEntry(*again, *decoded);
  };
  const auto decode_image = [](std::string_view bytes) {
    StatusOr<CheckpointImage> decoded = DecodeCheckpointPayload(bytes);
    if (!decoded.ok()) return;
    StatusOr<CheckpointImage> again =
        DecodeCheckpointPayload(EncodeCheckpointPayload(*decoded));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameImage(*again, *decoded);
  };
  CheckpointImage image;
  image.anchor = 17;
  image.max_txn = 9;
  image.objects.push_back({"BA", "", 15, "i 41"});
  image.objects.push_back({"k-1", "counter", 17, ""});
  image.objects.push_back({"KV", "", 0, "2 a%20b 5 % 1"});
  const std::string checkpoint = EncodeCheckpointPayload(image);

  const auto sweep = [&](const std::string& payload, const auto& decode) {
    for (size_t cut = 0; cut <= payload.size(); ++cut) {
      DecodeExact(std::string_view(payload).substr(0, cut), decode);
    }
    std::string changed = payload;
    for (size_t at = 0; at < payload.size(); ++at) {
      for (int byte = 0; byte < 256; ++byte) {
        if (static_cast<char>(byte) == payload[at]) continue;
        changed[at] = static_cast<char>(byte);
        DecodeExact(changed, decode);
      }
      changed[at] = payload[at];
    }
  };
  for (const std::string& payload : payloads) sweep(payload, decode_entry);
  sweep(checkpoint, decode_image);
}

TEST(JournalIoTest, WriterRoundTripsThroughMemorySink) {
  const auto records = SampleRecords();
  MemorySink sink;
  JournalWriter writer(&sink);
  std::vector<uint64_t> boundaries = {0};  // [n]: bytes after n records
  for (const auto& record : records) {
    ASSERT_TRUE(writer.Append(EncodeCommitRecord(record)).ok());
    boundaries.push_back(writer.bytes_written());
  }
  EXPECT_EQ(writer.records_appended(), records.size());
  EXPECT_EQ(writer.bytes_written(), sink.image().size());
  RecoveryReport report;
  StatusOr<Journal> scanned = ScanJournalImage(sink.image(), &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), records.size());
  // Record boundaries bracket the image.
  EXPECT_EQ(boundaries[0], 0u);
  EXPECT_EQ(boundaries[records.size()], sink.image().size());
}

TEST(JournalIoTest, WriterRoundTripsThroughFileSink) {
  const auto records = SampleRecords();
  const std::string path =
      ::testing::TempDir() + "/ccr_journal_format_test.wal";
  {
    StatusOr<std::unique_ptr<FileSink>> sink = FileSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    JournalWriter writer(sink->get());
    for (const auto& record : records) {
      ASSERT_TRUE(writer.Append(EncodeCommitRecord(record)).ok());
    }
  }
  StatusOr<std::string> image = ReadFileImage(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  RecoveryReport report;
  StatusOr<Journal> scanned = ScanJournalImage(*image, &report);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), records.size());
  EXPECT_FALSE(report.corrupt_tail);
  std::remove(path.c_str());
}

// A crash before record `crash` reached the disk: the image is a clean
// writer's, cut at that record's boundary.
TEST(JournalIoTest, CrashAtRecordDropsSuffix) {
  const auto records = SampleRecords();
  MemorySink sink;
  JournalWriter writer(&sink);
  std::vector<uint64_t> boundaries = {0};  // [n]: bytes after n records
  for (const auto& record : records) {
    ASSERT_TRUE(writer.Append(EncodeCommitRecord(record)).ok());
    boundaries.push_back(writer.bytes_written());
  }
  for (size_t crash = 0; crash <= records.size(); ++crash) {
    const std::string crashed = sink.image().substr(0, boundaries[crash]);
    RecoveryReport report;
    StatusOr<Journal> scanned = ScanJournalImage(crashed, &report);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(report.records_replayed, std::min(crash, records.size()));
    EXPECT_FALSE(report.corrupt_tail);  // boundary crash: clean prefix
  }
}

// A crash during record `torn`'s write: the image is a clean writer's, cut
// `keep` bytes into that record.
TEST(JournalIoTest, TornRecordTruncatesAtRecovery) {
  const auto records = SampleRecords();
  MemorySink sink;
  JournalWriter writer(&sink);
  std::vector<uint64_t> boundaries = {0};  // [n]: bytes after n records
  for (const auto& record : records) {
    ASSERT_TRUE(writer.Append(EncodeCommitRecord(record)).ok());
    boundaries.push_back(writer.bytes_written());
  }
  for (size_t torn = 0; torn < records.size(); ++torn) {
    const size_t encoded_size = EncodeCommitRecord(records[torn]).size();
    ASSERT_EQ(boundaries[torn + 1] - boundaries[torn], encoded_size);
    for (size_t keep : {size_t{1}, kJournalFrameHeaderSize - 1,
                        kJournalFrameHeaderSize + 1, encoded_size - 1}) {
      const std::string crashed =
          sink.image().substr(0, boundaries[torn] + keep);
      RecoveryReport report;
      StatusOr<Journal> scanned = ScanJournalImage(crashed, &report);
      ASSERT_TRUE(scanned.ok()) << "torn " << torn << " keep " << keep;
      EXPECT_EQ(report.records_replayed, torn);
      EXPECT_EQ(report.bytes_truncated, std::min(keep, encoded_size));
      EXPECT_TRUE(report.corrupt_tail);
    }
  }
}

}  // namespace
}  // namespace ccr
