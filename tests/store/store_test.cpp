// Results-store encoding primitives, codec, manifest, and the writer/reader
// crash contract (src/store/).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/error.hpp"
#include "core/varint.hpp"
#include "store/store.hpp"

namespace tdfm::store {
namespace {

namespace fs = std::filesystem;
using test::config_error_of;

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "tdfm_store_" + name;
  fs::remove_all(dir);
  return dir;
}

study::CellRecord sample_record(std::size_t i) {
  study::CellRecord r;
  char cell[20];
  std::snprintf(cell, sizeof(cell), "%016llx",
                static_cast<unsigned long long>(i * 2654435761ULL + 17));
  r.cell = cell;
  r.dataset = i % 2 ? "gtsrb-sim" : "pneumonia-sim";
  r.model = "ConvNet";
  r.fault_level = "mislabelling@30%";
  r.technique = i % 3 == 0 ? "Base" : (i % 3 == 1 ? "LS" : "Ens");
  r.trial = 1 + i % 5;
  r.golden_accuracy = 0.75 + 0.001 * static_cast<double>(i % 7);
  r.faulty_accuracy = 0.5 - 0.002 * static_cast<double>(i % 11);
  r.ad = r.golden_accuracy - r.faulty_accuracy;
  r.reverse_ad = 0.05;
  r.naive_drop = 0.2;
  r.train_seconds = 1.5 + 0.1 * static_cast<double>(i);
  r.infer_seconds = 0.01;
  r.inference_models = 5.0;
  r.shared_fit = i % 2 == 0;
  r.quantized = i % 4 == 0;
  r.quantized_accuracy = r.quantized ? 0.49 : 0.0;
  return r;
}

std::string write_journal_file(const std::string& path,
                               const std::vector<study::CellRecord>& records) {
  std::ostringstream text;
  for (const auto& r : records) text << study::to_jsonl(r) << '\n';
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text.str();
  return text.str();
}

// --- encoding primitives ----------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,          1,          127,       128,
                                  16383,      16384,      1ULL << 32,
                                  ~0ULL >> 1, ~0ULL};
  std::string buf;
  for (const std::uint64_t v : values) core::put_varint(buf, v);
  std::size_t pos = 0;
  for (const std::uint64_t v : values) EXPECT_EQ(core::get_varint(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, TruncatedInputThrows) {
  std::string buf;
  core::put_varint(buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  std::size_t pos = 0;
  EXPECT_THROW(core::get_varint(buf, pos), ConfigError);
}

TEST(Varint, ZigZagRoundTripsSignedValues) {
  for (const std::int64_t v : {0LL, 1LL, -1LL, 63LL, -64LL,
                               (long long)INT64_MAX, (long long)INT64_MIN}) {
    EXPECT_EQ(core::zigzag_decode(core::zigzag_encode(v)), v);
  }
}

TEST(Varint, PackBitsRoundTrips) {
  const std::vector<bool> bits = {true, false, false, true, true,
                                  true, false, true,  false};
  std::string buf;
  core::pack_bits(bits, buf);
  EXPECT_EQ(buf.size(), 2U);  // 9 bits -> 2 bytes
  std::size_t pos = 0;
  EXPECT_EQ(core::unpack_bits(buf, bits.size(), pos), bits);
}

// --- built-in LZ codec ------------------------------------------------------

TEST(Codec, TlzRoundTripsCompressibleData) {
  std::string raw;
  for (int i = 0; i < 200; ++i) raw += "abcabcabcXYZ";
  const std::string comp = tlz_compress(raw);
  EXPECT_LT(comp.size(), raw.size() / 4);
  EXPECT_EQ(tlz_decompress(comp, raw.size()), raw);
}

TEST(Codec, TlzRoundTripsIncompressibleData) {
  std::mt19937_64 gen(7);
  std::string raw;
  for (int i = 0; i < 10000; ++i) raw += static_cast<char>(gen());
  EXPECT_EQ(tlz_decompress(tlz_compress(raw), raw.size()), raw);
}

TEST(Codec, TlzRoundTripsShortAndEmptyInputs) {
  for (const std::string& raw : {std::string(), std::string("a"),
                                 std::string("abc"), std::string("aaaa")}) {
    EXPECT_EQ(tlz_decompress(tlz_compress(raw), raw.size()), raw);
  }
}

TEST(Codec, TlzRejectsTruncatedInput) {
  std::string raw;
  for (int i = 0; i < 100; ++i) raw += "abcabcabc";
  std::string comp = tlz_compress(raw);
  comp.resize(comp.size() / 2);
  EXPECT_THROW(tlz_decompress(comp, raw.size()), ConfigError);
}

TEST(Codec, CompressBlockFallsBackToRawWhenNotSmaller) {
  const auto [codec, bytes] = compress_block("x");
  EXPECT_EQ(codec, Codec::kRaw);
  EXPECT_EQ(bytes, "x");
  EXPECT_EQ(decompress_block(codec, bytes, 1), "x");
}

TEST(Codec, CompressBlockRoundTripsThroughPreferredCodec) {
  std::string raw;
  for (int i = 0; i < 500; ++i) raw += "the quick brown fox ";
  const auto [codec, bytes] = compress_block(raw);
  EXPECT_NE(codec, Codec::kRaw);
  EXPECT_LT(bytes.size(), raw.size());
  EXPECT_EQ(decompress_block(codec, bytes, raw.size()), raw);
}

// --- dictionary -------------------------------------------------------------

TEST(Dictionary, AssignsDenseFirstSeenIds) {
  Dictionary d;
  EXPECT_EQ(d.id_for("a"), 0U);
  EXPECT_EQ(d.id_for("b"), 1U);
  EXPECT_EQ(d.id_for("a"), 0U);
  EXPECT_EQ(d.size(), 2U);
  EXPECT_EQ(d.value(1), "b");
  EXPECT_EQ(d.find("b"), std::optional<std::uint64_t>(1));
  EXPECT_FALSE(d.find("missing").has_value());
}

TEST(Dictionary, AppendRejectsNonDenseIds) {
  Dictionary d;
  d.append(0, "a");
  EXPECT_THROW(d.append(2, "c"), ConfigError);
  EXPECT_THROW(d.append(0, "dup"), ConfigError);
}

// --- manifest ---------------------------------------------------------------

Manifest sample_manifest() {
  Manifest m;
  m.rows = 6;
  m.data_bytes = 123;
  m.segment_rows = 4;
  m.source = "j.jsonl";
  m.dicts[0].id_for("pneumonia-sim");
  m.dicts[3].id_for("Base");
  m.dicts[3].id_for("LS \"quoted\"");
  SegmentMeta s;
  s.offset = 0;
  s.bytes = 123;
  s.rows = 6;
  s.checksum = 0xdeadbeefcafe1234ULL;
  s.dict_ids[0] = {0};
  s.dict_ids[3] = {0, 1};
  s.trial_min = 1;
  s.trial_max = 5;
  s.ad_min = -0.25;
  s.ad_max = 0.5;
  m.segments.push_back(s);
  return m;
}

TEST(ManifestFormat, RendersAndParsesLosslessly) {
  const Manifest m = sample_manifest();
  const Manifest back = parse_manifest(render_manifest(m));
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.data_bytes, m.data_bytes);
  EXPECT_EQ(back.segment_rows, m.segment_rows);
  EXPECT_EQ(back.source, m.source);
  EXPECT_EQ(back.dicts[3].value(1), "LS \"quoted\"");
  ASSERT_EQ(back.segments.size(), 1U);
  EXPECT_EQ(back.segments[0].checksum, m.segments[0].checksum);
  EXPECT_EQ(back.segments[0].dict_ids[3], m.segments[0].dict_ids[3]);
  EXPECT_EQ(back.segments[0].trial_max, 5U);
  EXPECT_DOUBLE_EQ(back.segments[0].ad_min, -0.25);
}

TEST(ManifestFormat, DropsTornFinalLineAndReportsIt) {
  std::string text = render_manifest(sample_manifest());
  text += "{\"type\":\"segment\",\"offset\":999";  // unterminated tail
  bool recovered = false;
  const Manifest m = parse_manifest(text, &recovered);
  EXPECT_TRUE(recovered);
  EXPECT_EQ(m.segments.size(), 1U);
}

TEST(ManifestFormat, TerminatedGarbageThrows) {
  std::string text = render_manifest(sample_manifest());
  text += "{\"type\":\"nonsense\"}\n";
  EXPECT_THROW(parse_manifest(text), ConfigError);
}

TEST(ManifestFormat, NewerVersionThrows) {
  std::string text = render_manifest(sample_manifest());
  const std::size_t pos = text.find("\"version\":");
  text.replace(pos, std::string("\"version\":1").size(), "\"version\":99");
  EXPECT_THROW(parse_manifest(text), ConfigError);
}

TEST(ManifestFormat, OutOfRangeIntegerIsANamedLineError) {
  std::string text = render_manifest(sample_manifest());
  const std::size_t pos = text.find("\"trial_min\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("\"trial_min\":1").size(), "\"trial_min\":-1");
  const std::size_t line =
      1 + static_cast<std::size_t>(std::count(text.begin(), text.begin() + pos, '\n'));
  try {
    (void)parse_manifest(text);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) +
                                         ": field 'trial_min'"),
              std::string::npos)
        << e.what();
  }
}

// --- writer/reader round trip ----------------------------------------------

TEST(StoreRoundTrip, PreservesEveryFieldAcrossSegments) {
  const std::string dir = temp_dir("roundtrip");
  std::vector<study::CellRecord> records;
  for (std::size_t i = 0; i < 23; ++i) records.push_back(sample_record(i));
  {
    StoreWriter writer(dir, {.segment_rows = 4});
    for (const auto& r : records) writer.append(r);
    writer.commit();
    EXPECT_EQ(writer.manifest().segments.size(), 6U);  // 5 full + 1 partial
  }
  const StoreReader reader(dir);
  EXPECT_EQ(reader.rows(), records.size());
  EXPECT_FALSE(reader.recovered_truncated_tail());
  EXPECT_EQ(reader.read_all(), records);
}

TEST(StoreRoundTrip, PreservesNonHexCellIdsVerbatim) {
  const std::string dir = temp_dir("oddcell");
  study::CellRecord r = sample_record(0);
  r.cell = "not-hex at all";
  StoreWriter writer(dir);
  writer.append(r);
  writer.commit();
  EXPECT_EQ(StoreReader(dir).read_all().at(0).cell, r.cell);
}

TEST(StoreRoundTrip, ExportReproducesCanonicalJournalBytes) {
  const std::string dir = temp_dir("export");
  const std::string journal = dir + ".jsonl";
  std::vector<study::CellRecord> records;
  for (std::size_t i = 0; i < 10; ++i) records.push_back(sample_record(i));
  const std::string bytes = write_journal_file(journal, records);

  const ImportStats stats = import_journal(journal, dir, {.segment_rows = 3});
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(stats.raw_exceptions, 0U);
  EXPECT_FALSE(stats.recovered_torn_tail);

  std::ostringstream exported;
  StoreReader(dir).export_jsonl(exported);
  EXPECT_EQ(exported.str(), bytes);
}

TEST(StoreRoundTrip, KeepsNonCanonicalLinesVerbatim) {
  const std::string dir = temp_dir("raw");
  const std::string journal = dir + ".jsonl";
  // Same record, non-canonical spacing: parses fine, does not re-render
  // byte-identically — must ride the exception column.
  const std::string odd =
      "{\"cell\":\"00000000000000aa\",\"dataset\":\"d\",\"model\":\"m\","
      "\"fault_level\":\"f\",\"technique\":\"t\",\"trial\":1}";
  {
    std::ofstream out(journal, std::ios::trunc | std::ios::binary);
    out << study::to_jsonl(sample_record(0)) << '\n' << odd << '\n';
  }
  const ImportStats stats = import_journal(journal, dir);
  EXPECT_EQ(stats.raw_exceptions, 1U);

  std::ostringstream exported;
  StoreReader(dir).export_jsonl(exported);
  EXPECT_EQ(exported.str(),
            study::to_jsonl(sample_record(0)) + '\n' + odd + '\n');
}

TEST(StoreRoundTrip, ImportRecoversTornJournalTail) {
  const std::string dir = temp_dir("torn_journal");
  const std::string journal = dir + ".jsonl";
  std::vector<study::CellRecord> records;
  for (std::size_t i = 0; i < 4; ++i) records.push_back(sample_record(i));
  const std::string bytes = write_journal_file(journal, records);
  {
    std::ofstream out(journal, std::ios::app | std::ios::binary);
    out << "{\"cell\": \"torn";  // no newline: interrupted append
  }
  const ImportStats stats = import_journal(journal, dir);
  EXPECT_TRUE(stats.recovered_torn_tail);
  EXPECT_EQ(stats.records, records.size());

  std::ostringstream exported;
  StoreReader(dir).export_jsonl(exported);
  EXPECT_EQ(exported.str(), bytes);  // the intact prefix, byte for byte
}

TEST(StoreRoundTrip, ImportThrowsOnTerminatedGarbage) {
  const std::string dir = temp_dir("garbage");
  const std::string journal = dir + ".jsonl";
  std::ofstream(journal, std::ios::binary) << "not json at all\n";
  EXPECT_THROW(import_journal(journal, dir), ConfigError);
}

// Only a regular file is a journal: a directory must not import as an
// empty store (and then verify against its own empty read).
TEST(StoreRoundTrip, ImportRefusesADirectory) {
  const std::string dir = temp_dir("import_dir");
  const std::string journal = dir + ".journal_dir";
  fs::create_directories(journal);
  try {
    (void)import_journal(journal, dir);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(journal), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(dir));
  fs::remove_all(journal);
}

TEST(StoreRoundTrip, ImportRefusesAMissingJournal) {
  const std::string dir = temp_dir("import_missing");
  const std::string journal = dir + ".absent.jsonl";
  try {
    (void)import_journal(journal, dir);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(journal), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(dir));
}

TEST(StoreWriter, ExtendsAnExistingStoreKeepingDictionaryIds) {
  const std::string dir = temp_dir("extend");
  {
    StoreWriter writer(dir, {.segment_rows = 2});
    writer.append(sample_record(0));
    writer.append(sample_record(1));
    writer.commit();
  }
  {
    StoreWriter writer(dir, {.segment_rows = 999});  // existing geometry wins
    writer.append(sample_record(2));
    writer.append(sample_record(3));
    writer.commit();
    EXPECT_EQ(writer.manifest().segment_rows, 2U);
  }
  const StoreReader reader(dir);
  EXPECT_EQ(reader.rows(), 4U);
  const auto all = reader.read_all();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(all[i], sample_record(i));
}

// --- crash contract (mirrors journal_test's torn-tail cases) ---------------

TEST(StoreCrash, ReaderDropsTruncatedFinalSegment) {
  const std::string dir = temp_dir("trunc_tail");
  std::vector<study::CellRecord> records;
  for (std::size_t i = 0; i < 8; ++i) records.push_back(sample_record(i));
  {
    StoreWriter writer(dir, {.segment_rows = 4});
    for (const auto& r : records) writer.append(r);
    writer.commit();
  }
  const std::string data = dir + "/" + kDataFile;
  fs::resize_file(data, fs::file_size(data) - 5);  // tear the tail

  const StoreReader reader(dir);
  EXPECT_TRUE(reader.recovered_truncated_tail());
  EXPECT_EQ(reader.rows(), 4U);  // the intact first segment
  const auto all = reader.read_all();
  ASSERT_EQ(all.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(all[i], records[i]);
}

TEST(StoreCrash, ReaderDropsFinalSegmentWithFlippedByte) {
  const std::string dir = temp_dir("flip_tail");
  {
    StoreWriter writer(dir, {.segment_rows = 2});
    for (std::size_t i = 0; i < 4; ++i) writer.append(sample_record(i));
    writer.commit();
  }
  const std::string data = dir + "/" + kDataFile;
  std::fstream f(data, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-3, std::ios::end);
  f.put('\xff');
  f.close();

  const StoreReader reader(dir);
  EXPECT_TRUE(reader.recovered_truncated_tail());
  EXPECT_EQ(reader.rows(), 2U);
}

TEST(StoreCrash, QueryThrowsOnNonFinalSegmentCorruption) {
  const std::string dir = temp_dir("mid_corrupt");
  {
    StoreWriter writer(dir, {.segment_rows = 2});
    for (std::size_t i = 0; i < 6; ++i) writer.append(sample_record(i));
    writer.commit();
  }
  // Flip a byte inside the FIRST segment: interior damage is corruption,
  // not a crash signature, and must not be silently recovered.
  std::fstream f(dir + "/" + kDataFile,
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(10);
  f.put('\xff');
  f.close();

  const StoreReader reader(dir);  // open only validates the tail
  EXPECT_THROW(reader.read_all(), ConfigError);
}

TEST(StoreCrash, WriterTruncatesOrphanBytesFromInterruptedFlush) {
  const std::string dir = temp_dir("orphan");
  {
    StoreWriter writer(dir, {.segment_rows = 2});
    for (std::size_t i = 0; i < 4; ++i) writer.append(sample_record(i));
    writer.commit();
  }
  // Crash between segment append and manifest commit: durable bytes the
  // manifest never references.
  std::ofstream(dir + "/" + kDataFile, std::ios::app | std::ios::binary)
      << "orphan segment bytes from an interrupted flush";
  {
    StoreWriter writer(dir);
    writer.append(sample_record(4));
    writer.append(sample_record(5));
    writer.commit();
  }
  const StoreReader reader(dir);
  EXPECT_FALSE(reader.recovered_truncated_tail());
  EXPECT_EQ(reader.rows(), 6U);
  EXPECT_EQ(reader.read_all().back(), sample_record(5));
}

TEST(StoreCrash, WriterRefusesAStoreShorterThanItsManifest) {
  const std::string dir = temp_dir("short");
  {
    StoreWriter writer(dir, {.segment_rows = 2});
    for (std::size_t i = 0; i < 4; ++i) writer.append(sample_record(i));
    writer.commit();
  }
  const std::string data = dir + "/" + kDataFile;
  fs::resize_file(data, fs::file_size(data) / 2);
  EXPECT_THROW(StoreWriter{dir}, ConfigError);  // write would corrupt more
  EXPECT_TRUE(StoreReader(dir).recovered_truncated_tail());  // read recovers
}

// --- hostile input: every size read from disk is checked before it is used ---

/// A committed store of `rows` sample records in segments of `segment_rows`.
std::string write_store(const std::string& name, std::size_t rows,
                        std::size_t segment_rows) {
  const std::string dir = temp_dir(name);
  StoreWriter writer(dir, {.segment_rows = segment_rows});
  for (std::size_t i = 0; i < rows; ++i) writer.append(sample_record(i));
  writer.commit();
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;
}

/// Parses the manifest of `dir`, applies `edit` and writes it back.
void edit_manifest(const std::string& dir, const std::function<void(Manifest&)>& edit) {
  const std::string path = dir + "/" + kManifestFile;
  Manifest m = parse_manifest(read_bytes(path));
  edit(m);
  write_bytes(path, render_manifest(m));
}

/// Rewrites the only segment of `dir` with column `id` holding `raw` (added
/// when absent; every block stored uncompressed) and records the new size
/// and checksum in the manifest, so the segment passes every integrity check
/// and only its content is forged.
void forge_column(const std::string& dir, ColumnId id, const std::string& raw) {
  const std::string data_path = dir + "/" + kDataFile;
  const std::string seg = read_bytes(data_path);
  std::size_t pos = 4;  // past the magic
  const std::uint64_t count = core::get_varint(seg, pos);
  std::vector<std::pair<std::uint64_t, std::string>> blocks;
  for (std::uint64_t b = 0; b < count; ++b) {
    const std::uint64_t column = core::get_varint(seg, pos);
    const auto codec = static_cast<Codec>(seg[pos++]);
    const std::uint64_t raw_size = core::get_varint(seg, pos);
    const std::uint64_t comp_size = core::get_varint(seg, pos);
    blocks.emplace_back(column, decompress_block(codec, std::string_view(seg).substr(pos, comp_size),
                                                 raw_size));
    pos += comp_size;
  }
  const auto column = static_cast<std::uint64_t>(id);
  const auto it = std::find_if(blocks.begin(), blocks.end(),
                               [&](const auto& block) { return block.first == column; });
  if (it == blocks.end()) {
    blocks.emplace_back(column, raw);
  } else {
    it->second = raw;
  }
  std::string out = seg.substr(0, 4);
  core::put_varint(out, blocks.size());
  for (const auto& [col, bytes] : blocks) {
    core::put_varint(out, col);
    out += static_cast<char>(Codec::kRaw);
    core::put_varint(out, bytes.size());
    core::put_varint(out, bytes.size());
    out += bytes;
  }
  write_bytes(data_path, out);
  edit_manifest(dir, [&](Manifest& m) {
    m.segments.at(0).bytes = out.size();
    m.segments.at(0).checksum = core::fnv1a64(out);
    m.data_bytes = out.size();
  });
}

constexpr std::uint64_t kForged = 1'000'000'000'000'000ULL;  // 10^15

TEST(StoreHostile, EarlierSegmentPastTheEndOfTheFileIsANamedError) {
  const std::string dir = write_store("past_end", 6, 2);
  const std::string manifest = read_bytes(dir + "/" + kManifestFile);
  const std::function<void(SegmentMeta&)> forgeries[] = {
      [](SegmentMeta& s) { s.bytes = kForged; },
      [](SegmentMeta& s) { s.offset = kForged; },
      // offset + bytes wraps to a small sum.
      [](SegmentMeta& s) {
        s.offset = std::numeric_limits<std::uint64_t>::max() - 2047;
        s.bytes = 2100;
      },
  };
  for (const auto& forge : forgeries) {
    write_bytes(dir + "/" + kManifestFile, manifest);
    edit_manifest(dir, [&](Manifest& m) { forge(m.segments.at(1)); });
    EXPECT_NE(config_error_of([&] { (void)StoreReader(dir); }).find("overruns segments.bin"),
              std::string::npos);
  }
}

TEST(StoreHostile, ForgedRowCountIsANamedError) {
  const std::string dir = write_store("rows", 6, 2);
  // The header's sum follows the forged segment, so the store opens and the
  // read names the segment.
  edit_manifest(dir, [](Manifest& m) {
    m.segments.at(1).rows = kForged;
    m.rows = 4 + kForged;
  });
  const StoreReader reader(dir);
  EXPECT_NE(config_error_of([&] { (void)reader.read_all(); })
                .find("manifest declares 1000000000000000 rows"),
            std::string::npos);
}

// `info` prints the header's rows and the writer truncates segments.bin to
// its data_bytes, so a header that disagrees with its segments fails at
// open, in the reader and the writer alike, and no byte is cut.
TEST(StoreHostile, HeaderThatDisagreesWithItsSegmentsIsANamedError) {
  const std::string dir = write_store("header", 6, 2);
  const std::string manifest = read_bytes(dir + "/" + kManifestFile);
  const std::string data = read_bytes(dir + "/" + kDataFile);
  const struct {
    std::function<void(Manifest&)> forge;
    std::string error;
  } forgeries[] = {
      {[](Manifest& m) { m.rows = kForged; },
       "header declares 1000000000000000 rows but its segments hold 6"},
      {[](Manifest& m) { m.data_bytes = 10; },
       "header declares data_bytes 10 but the last segment ends at " +
           std::to_string(data.size())},
  };
  for (const auto& forgery : forgeries) {
    write_bytes(dir + "/" + kManifestFile, manifest);
    edit_manifest(dir, forgery.forge);
    EXPECT_NE(config_error_of([&] { (void)StoreReader(dir); }).find(forgery.error),
              std::string::npos)
        << forgery.error;
    EXPECT_NE(config_error_of([&] { StoreWriter writer(dir); }).find(forgery.error),
              std::string::npos)
        << forgery.error;
    EXPECT_EQ(read_bytes(dir + "/" + kDataFile), data);
  }
}

TEST(StoreHostile, ForgedRawSizeIsANamedError) {
  std::vector<Codec> codecs{Codec::kTlz};
  if (zlib_available()) codecs.push_back(Codec::kZlib);
  for (const Codec codec : codecs) {
    EXPECT_NE(config_error_of([&] { (void)decompress_block(codec, "x", kForged); })
                  .find("cannot decode to 1000000000000000 bytes"),
              std::string::npos)
        << static_cast<int>(codec);
  }
  // The bound admits the most compressible input: a long run of one byte.
  const std::string zeros(1 << 20, '\0');
  EXPECT_EQ(tlz_decompress(tlz_compress(zeros), zeros.size()), zeros);
  const auto [codec, comp] = compress_block(zeros);
  EXPECT_EQ(decompress_block(codec, comp, zeros.size()), zeros);
}

TEST(StoreHostile, LengthThatWrapsThePositionIsANamedError) {
  // A length of 2^64 - 1 - p would wrap a `p + len > size` check.
  constexpr std::uint64_t kWrap = std::numeric_limits<std::uint64_t>::max();
  std::string cells;
  core::put_varint(cells, kWrap);
  cells += "abcdef";
  std::string exceptions;
  core::put_varint(exceptions, 1);  // entries
  core::put_varint(exceptions, 0);  // row
  core::put_varint(exceptions, kWrap - 3);
  exceptions += "abcdef";
  const struct {
    ColumnId id;
    std::string raw;
    const char* error;
  } forgeries[] = {{ColumnId::kCell, cells, "truncated cell string"},
                   {ColumnId::kRawExceptions, exceptions, "malformed exception entry"}};
  for (const auto& forgery : forgeries) {
    const std::string dir = write_store("wrap", 1, 2);
    forge_column(dir, forgery.id, forgery.raw);
    EXPECT_NE(config_error_of([&] { (void)StoreReader(dir).read_all(); }).find(forgery.error),
              std::string::npos)
        << forgery.error;
  }
  // The telemetry archive's file-name length, with the archive's checksum
  // recomputed.
  const std::string dir = write_store("wrap_telemetry", 1, 2);
  std::string blob;
  for (int i = 0; i < 4; ++i) blob += static_cast<char>((kSegmentMagic >> (8 * i)) & 0xFF);
  core::put_varint(blob, 1);  // files
  core::put_varint(blob, kWrap - 4);
  blob += "metrics-1.jsonl";
  write_bytes(dir + "/" + kTelemetryFile, blob);
  edit_manifest(dir, [&](Manifest& m) {
    m.telemetry_files = 1;
    m.telemetry_bytes = blob.size();
    m.telemetry_checksum = core::fnv1a64(blob);
  });
  EXPECT_NE(config_error_of([&] { (void)StoreReader(dir).restore_telemetry(dir + ".out"); })
                .find("truncated file name"),
            std::string::npos);
}

TEST(StoreHostile, OverflowingTrialDeltasAreANamedError) {
  const std::string dir = write_store("trial", 2, 2);
  std::string trials;
  core::put_varint(trials, core::zigzag_encode(std::numeric_limits<std::int64_t>::max()));
  core::put_varint(trials, core::zigzag_encode(1));
  forge_column(dir, ColumnId::kTrial, trials);
  EXPECT_NE(config_error_of([&] { (void)StoreReader(dir).read_all(); })
                .find("trial deltas overflow at row 1"),
            std::string::npos);
}

}  // namespace
}  // namespace tdfm::store
