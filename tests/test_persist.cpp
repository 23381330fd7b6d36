#include "persist/store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"
#include "persist/codec.hpp"
#include "tt/npn.hpp"

namespace lls {
namespace {

namespace fs = std::filesystem;
using persist::ByteReader;
using persist::ByteWriter;
using persist::LoadReport;
using persist::MemoStore;
using persist::Section;
using persist::StoreMode;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() / ("lls_persist_" + tag);
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
};

std::vector<fs::path> shard_files(const fs::path& dir) {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().extension() == persist::kShardExtension)
            out.push_back(entry.path());
    return out;
}

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void dump(const fs::path& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- format --

TEST(PersistFormat, WriterReaderRoundtrip) {
    ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.varint(0);
    w.varint(127);
    w.varint(128);
    w.varint(0xffffffffffffffffULL);
    w.blob("hello");
    w.blob("");

    ByteReader r(w.str());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_EQ(r.varint(), 127u);
    EXPECT_EQ(r.varint(), 128u);
    EXPECT_EQ(r.varint(), 0xffffffffffffffffULL);
    EXPECT_EQ(r.blob(), "hello");
    EXPECT_EQ(r.blob(), "");
    EXPECT_TRUE(r.at_end());
    EXPECT_NO_THROW(r.expect_end());
}

TEST(PersistFormat, ReaderThrowsOnUnderrun) {
    ByteReader r(std::string_view("\x01\x02", 2));
    EXPECT_THROW(r.u32(), LlsError);
}

TEST(PersistFormat, ReaderThrowsOnMalformedVarint) {
    // Ten continuation bytes: a varint can't span more than 64 bits.
    const std::string bad(10, '\xff');
    ByteReader r(bad);
    EXPECT_THROW(r.varint(), LlsError);
}

TEST(PersistFormat, ReaderThrowsOnBlobPastEnd) {
    ByteWriter w;
    w.varint(1000);  // blob claims 1000 bytes...
    w.raw("xy");     // ...but only two follow
    ByteReader r(w.str());
    EXPECT_THROW(r.blob(), LlsError);
}

TEST(PersistFormat, TrailingBytesAreAnError) {
    ByteReader r(std::string_view("abc"));
    (void)r.u8();
    EXPECT_THROW(r.expect_end(), LlsError);
}

// ---------------------------------------------------------------- codecs --

TEST(PersistCodec, PairKeyRoundtrip) {
    const std::string key = persist::encode_pair_key(0x1122334455667788ULL, 42);
    EXPECT_EQ(key.size(), 16u);
    const auto [a, b] = persist::decode_pair_key(key);
    EXPECT_EQ(a, 0x1122334455667788ULL);
    EXPECT_EQ(b, 42u);
    EXPECT_THROW(persist::decode_pair_key("short"), LlsError);
}

TEST(PersistCodec, AigRoundtripPreservesStructure) {
    // cleanup() products are exactly what outcome AIGs look like: PIs
    // first, ANDs freshly created in id order — the replay codec's domain.
    const Aig original = ripple_carry_adder(6).cleanup();
    ByteWriter w;
    persist::encode_aig(w, original);
    ByteReader r(w.str());
    const Aig decoded = persist::decode_aig(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(decoded.hash(), original.hash());
    EXPECT_EQ(decoded.num_pis(), original.num_pis());
    EXPECT_EQ(decoded.num_pos(), original.num_pos());
    EXPECT_EQ(decoded.depth(), original.depth());
}

TEST(PersistCodec, AigDecodeRejectsCorruptBytes) {
    const Aig original = ripple_carry_adder(4).cleanup();
    ByteWriter w;
    persist::encode_aig(w, original);
    std::string bytes = w.str();
    bytes[bytes.size() / 2] ^= 0x40;  // flip a bit mid-structure
    ByteReader r(bytes);
    // Either the node replay diverges (hash/fanin check) or the reader
    // underruns — both must surface as the structured store error.
    EXPECT_THROW(persist::decode_aig(r), LlsError);
}

TEST(PersistCodec, ConeEvaluationRoundtripWithoutOutcome) {
    ConeEvaluation eval;
    eval.outcome = nullptr;  // "no improvement found" is a first-class memo
    eval.cost.decompositions = 17;
    eval.cost.sat_conflicts = 3141;
    const ConeEvaluation back =
        persist::decode_cone_evaluation(persist::encode_cone_evaluation(eval));
    EXPECT_EQ(back.outcome, nullptr);
    EXPECT_EQ(back.cost.decompositions, 17u);
    EXPECT_EQ(back.cost.sat_conflicts, 3141u);
    EXPECT_TRUE(back.faults.empty());
}

TEST(PersistCodec, ConeEvaluationRoundtripWithOutcome) {
    auto outcome = std::make_shared<DecomposeOutcome>();
    outcome->aig = carry_lookahead_adder(4).cleanup();
    outcome->old_depth = 12;
    outcome->new_depth = 7;
    outcome->num_windows = 5;
    outcome->reconstruction = "y = S1*y0 + !S1*y1";

    ConeEvaluation eval;
    eval.outcome = outcome;
    eval.cost.decompositions = 9;
    const ConeEvaluation back =
        persist::decode_cone_evaluation(persist::encode_cone_evaluation(eval));
    ASSERT_NE(back.outcome, nullptr);
    EXPECT_EQ(back.outcome->aig.hash(), outcome->aig.hash());
    EXPECT_EQ(back.outcome->old_depth, 12);
    EXPECT_EQ(back.outcome->new_depth, 7);
    EXPECT_EQ(back.outcome->num_windows, 5);
    EXPECT_EQ(back.outcome->reconstruction, outcome->reconstruction);
    EXPECT_EQ(back.cost.decompositions, 9u);
}

TEST(PersistCodec, FaultedEvaluationMustNotBePersisted) {
    ConeEvaluation eval;
    eval.faults.push_back(FaultRecord{});
    EXPECT_THROW(persist::encode_cone_evaluation(eval), ContractViolation);
}

TEST(PersistCodec, CecVerdictRoundtrip) {
    EXPECT_TRUE(persist::decode_cec_verdict(persist::encode_cec_verdict(true)));
    EXPECT_FALSE(persist::decode_cec_verdict(persist::encode_cec_verdict(false)));
    EXPECT_THROW(persist::decode_cec_verdict("\x07"), LlsError);
}

TEST(PersistCodec, NpnResultRoundtrip) {
    TruthTable tt(4);
    tt.set_bit(3, true);
    tt.set_bit(7, true);
    tt.set_bit(14, true);
    const NpnResult npn = npn_canonize(tt);
    const NpnResult back = persist::decode_npn_result(persist::encode_npn_result(npn));
    EXPECT_EQ(back.canonical, npn.canonical);
    EXPECT_EQ(back.perm, npn.perm);
    EXPECT_EQ(back.input_negation, npn.input_negation);
    EXPECT_EQ(back.output_negation, npn.output_negation);
}

TEST(PersistCodec, ExactStructureRoundtrip) {
    ExactStructure s;
    s.num_inputs = 3;
    s.gates.push_back({0, 1, true, false});
    s.gates.push_back({2, 3, false, true});
    s.output_signal = 4;
    s.output_complemented = true;
    const auto back = persist::decode_exact_structure(
        persist::encode_exact_structure(std::optional<ExactStructure>(s)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->num_inputs, 3);
    ASSERT_EQ(back->gates.size(), 2u);
    EXPECT_EQ(back->gates[0].fanin0, 0);
    EXPECT_EQ(back->gates[0].fanin1, 1);
    EXPECT_TRUE(back->gates[0].complement0);
    EXPECT_FALSE(back->gates[0].complement1);
    EXPECT_EQ(back->gates[1].fanin0, 2);
    EXPECT_TRUE(back->gates[1].complement1);
    EXPECT_EQ(back->output_signal, 4);
    EXPECT_TRUE(back->output_complemented);
    EXPECT_FALSE(back->output_constant);

    // "no realization in budget" is itself a memo worth persisting.
    const auto none = persist::decode_exact_structure(
        persist::encode_exact_structure(std::nullopt));
    EXPECT_FALSE(none.has_value());
}

// ----------------------------------------------------------------- store --

TEST(PersistStore, PublishLoadRoundtripAcrossAllSections) {
    TempDir dir("roundtrip");
    {
        MemoStore store(dir.str(), StoreMode::ReadWrite);
        store.load();
        EXPECT_TRUE(store.report().cold_start);
        EXPECT_TRUE(store.record(Section::Decompose, persist::encode_pair_key(1, 2),
                                 [] { return std::string("dval"); }));
        EXPECT_TRUE(store.record(Section::Cec, persist::encode_pair_key(3, 4),
                                 [] { return persist::encode_cec_verdict(true); }));
        EXPECT_TRUE(store.record(Section::Npn, "4:abcd", [] { return std::string("nval"); }));
        EXPECT_TRUE(store.record(Section::ExactStruct, "4:abcd:c512",
                                 [] { return std::string("xval"); }));
        EXPECT_EQ(store.fresh_count(), 4u);
        EXPECT_TRUE(store.publish());
        EXPECT_EQ(store.fresh_count(), 0u);
        EXPECT_EQ(store.loaded_count(), 4u);
    }
    ASSERT_EQ(shard_files(dir.path).size(), 1u);

    MemoStore reader(dir.str(), StoreMode::Read);
    const LoadReport& report = reader.load();
    EXPECT_EQ(report.files_scanned, 1u);
    EXPECT_EQ(report.files_loaded, 1u);
    EXPECT_EQ(report.files_rejected, 0u);
    EXPECT_EQ(report.records_loaded, 4u);
    EXPECT_FALSE(report.cold_start);

    std::map<std::string, std::string> decompose;
    reader.for_each_loaded(Section::Decompose, [&](std::string_view k, std::string_view v) {
        decompose.emplace(k, v);
    });
    ASSERT_EQ(decompose.size(), 1u);
    EXPECT_EQ(decompose.begin()->first, persist::encode_pair_key(1, 2));
    EXPECT_EQ(decompose.begin()->second, "dval");

    bool cec_seen = false;
    reader.for_each_loaded(Section::Cec, [&](std::string_view k, std::string_view v) {
        cec_seen = true;
        EXPECT_EQ(k, persist::encode_pair_key(3, 4));
        EXPECT_TRUE(persist::decode_cec_verdict(v));
    });
    EXPECT_TRUE(cec_seen);
}

TEST(PersistStore, RecordDeduplicatesAndIsLazy) {
    TempDir dir("dedupe");
    MemoStore store(dir.str(), StoreMode::ReadWrite);
    store.load();
    int calls = 0;
    const auto value = [&calls] {
        ++calls;
        return std::string("v");
    };
    EXPECT_TRUE(store.record(Section::Npn, "k", value));
    EXPECT_FALSE(store.record(Section::Npn, "k", value));
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(store.publish());
    // Promoted-to-loaded keys stay known: still not re-staged.
    EXPECT_FALSE(store.record(Section::Npn, "k", value));
    EXPECT_EQ(calls, 1);
}

TEST(PersistStore, ReadOnlyModeNeverPublishes) {
    TempDir dir("readonly");
    MemoStore store(dir.str(), StoreMode::Read);
    store.load();
    store.record(Section::Npn, "k", [] { return std::string("v"); });
    EXPECT_FALSE(store.publish());
    EXPECT_TRUE(shard_files(dir.path).empty());
}

TEST(PersistStore, OffModeIsInert) {
    TempDir dir("off");
    MemoStore store(dir.str(), StoreMode::Off);
    const LoadReport& report = store.load();
    EXPECT_TRUE(report.cold_start);
    EXPECT_EQ(report.files_scanned, 0u);
    EXPECT_FALSE(store.publish());
}

/// Publishes one good shard holding a single NPN record and returns its
/// path.
fs::path publish_one_shard(const TempDir& dir) {
    MemoStore store(dir.str(), StoreMode::ReadWrite);
    store.load();
    store.record(Section::Npn, "key", [] { return std::string("value"); });
    EXPECT_TRUE(store.publish());
    const auto files = shard_files(dir.path);
    EXPECT_EQ(files.size(), 1u);
    return files.at(0);
}

TEST(PersistStore, TruncatedShardIsRejectedWholeNotFatal) {
    TempDir dir("truncate");
    const fs::path shard = publish_one_shard(dir);
    const std::string good = slurp(shard);
    dump(shard, good.substr(0, good.size() - 3));

    MemoStore reader(dir.str(), StoreMode::Read);
    const LoadReport& report = reader.load();
    EXPECT_EQ(report.files_rejected, 1u);
    EXPECT_EQ(report.records_loaded, 0u);
    EXPECT_TRUE(report.cold_start);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("persist"), std::string::npos);
}

TEST(PersistStore, BitFlippedShardIsRejectedWholeNotFatal) {
    TempDir dir("bitflip");
    const fs::path shard = publish_one_shard(dir);
    std::string bytes = slurp(shard);
    bytes[bytes.size() - 5] ^= 0x01;  // corrupt the record checksum/payload
    dump(shard, bytes);

    MemoStore reader(dir.str(), StoreMode::Read);
    const LoadReport& report = reader.load();
    EXPECT_EQ(report.files_rejected, 1u);
    EXPECT_TRUE(report.cold_start);
}

TEST(PersistStore, VersionMismatchIsRejectedAndNamed) {
    TempDir dir("version");
    const fs::path shard = publish_one_shard(dir);
    std::string bytes = slurp(shard);
    bytes[8] = 99;  // the u32 LE format-version field follows the magic
    dump(shard, bytes);

    MemoStore reader(dir.str(), StoreMode::Read);
    const LoadReport& report = reader.load();
    EXPECT_EQ(report.files_rejected, 1u);
    EXPECT_TRUE(report.cold_start);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("format version"), std::string::npos);
}

TEST(PersistStore, PreviousFormatVersionIsRejected) {
    // A store written before the last format bump replays conflict counts
    // and quota degradations that a cold run no longer produces, so it
    // must cold-start rather than load.
    static_assert(persist::kFormatVersion == 2);
    TempDir dir("old_version");
    const fs::path shard = publish_one_shard(dir);
    std::string bytes = slurp(shard);
    bytes[8] = static_cast<char>(persist::kFormatVersion - 1);
    dump(shard, bytes);

    MemoStore reader(dir.str(), StoreMode::Read);
    const LoadReport& report = reader.load();
    EXPECT_EQ(report.files_rejected, 1u);
    EXPECT_EQ(report.records_loaded, 0u);
    EXPECT_TRUE(report.cold_start);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("format version 1, expected 2"), std::string::npos);
}

TEST(PersistStore, BadMagicIsRejected) {
    TempDir dir("magic");
    const fs::path shard = publish_one_shard(dir);
    std::string bytes = slurp(shard);
    bytes[0] = 'X';
    dump(shard, bytes);

    MemoStore reader(dir.str(), StoreMode::Read);
    EXPECT_EQ(reader.load().files_rejected, 1u);
}

TEST(PersistStore, UnknownSectionRecordIsSkippedNotFatal) {
    TempDir dir("unknown_section");
    // Hand-craft a shard: one record of an id from the future (9) and one
    // the loader understands.
    ByteWriter file;
    file.raw(std::string_view(persist::kMagic, sizeof(persist::kMagic)));
    file.u32(persist::kFormatVersion);
    file.u32(0);
    const auto append_record = [&file](std::uint8_t section, std::string_view key,
                                       std::string_view value) {
        ByteWriter payload;
        payload.u8(section);
        payload.blob(key);
        payload.blob(value);
        file.u32(static_cast<std::uint32_t>(payload.str().size()));
        file.raw(payload.str());
        file.u64(persist::fnv1a(payload.str()));
    };
    append_record(9, "future-key", "future-value");
    append_record(static_cast<std::uint8_t>(Section::Npn), "known", "v");
    dump(dir.path / ("hand" + std::string(persist::kShardExtension)), file.str());

    MemoStore reader(dir.str(), StoreMode::Read);
    const LoadReport& report = reader.load();
    EXPECT_EQ(report.files_rejected, 0u);
    EXPECT_EQ(report.files_loaded, 1u);
    EXPECT_EQ(report.records_loaded, 1u);  // only the known section
    EXPECT_FALSE(report.cold_start);
}

TEST(PersistStore, TempFilesAreIgnoredByTheLoader) {
    TempDir dir("tempfiles");
    publish_one_shard(dir);
    dump(dir.path / (".tmp-memo-junk" + std::string(persist::kShardExtension)), "garbage");
    dump(dir.path / "README.txt", "not a shard");

    MemoStore reader(dir.str(), StoreMode::Read);
    const LoadReport& report = reader.load();
    EXPECT_EQ(report.files_scanned, 1u);
    EXPECT_EQ(report.records_loaded, 1u);
}

TEST(PersistStore, CompactionMergesManyShardsIntoOne) {
    TempDir dir("compact");
    // Ten single-record shards from ten sequential "processes".
    for (int i = 0; i < 10; ++i) {
        MemoStore store(dir.str(), StoreMode::ReadWrite);
        store.load();
        store.record(Section::Npn, "key" + std::to_string(i),
                     [i] { return "value" + std::to_string(i); });
        ASSERT_TRUE(store.publish());
    }
    EXPECT_EQ(shard_files(dir.path).size(), 10u);

    MemoStore store(dir.str(), StoreMode::ReadWrite);
    store.load();
    EXPECT_EQ(store.report().records_loaded, 10u);
    store.compact(/*max_shards=*/8);
    EXPECT_EQ(shard_files(dir.path).size(), 1u);

    MemoStore reader(dir.str(), StoreMode::Read);
    EXPECT_EQ(reader.load().records_loaded, 10u);
}

TEST(PersistStore, ParseStoreModeGrammar) {
    EXPECT_EQ(persist::parse_store_mode("read"), StoreMode::Read);
    EXPECT_EQ(persist::parse_store_mode("write"), StoreMode::Write);
    EXPECT_EQ(persist::parse_store_mode("rw"), StoreMode::ReadWrite);
    EXPECT_EQ(persist::parse_store_mode("off"), StoreMode::Off);
    EXPECT_FALSE(persist::parse_store_mode("READ").has_value());
    EXPECT_FALSE(persist::parse_store_mode("").has_value());
}

// ------------------------------------------------------------ warm start --

std::string optimize_bytes(const Aig& input, const LookaheadParams& params,
                           WarmStart* warm) {
    EngineOptions engine;
    engine.jobs = 2;
    engine.warm_start = warm;
    const Aig out = optimize_timing_engine(input, params, engine);
    std::stringstream aiger;
    write_aiger(aiger, out);
    return aiger.str();
}

std::uint64_t warm_hits() { return Metrics::global().counter("persist.warm_hits").value(); }

TEST(WarmStartEndToEnd, WarmRunIsByteIdenticalAndMetered) {
    TempDir dir("e2e");
    const Aig input = ripple_carry_adder(8);
    LookaheadParams params;
    params.max_iterations = 4;

    clear_engine_caches();
    std::string cold;
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        EXPECT_EQ(warm.imported_records(), 0u);
        cold = optimize_bytes(input, params, &warm);
        warm.finalize();
    }
    ASSERT_FALSE(shard_files(dir.path).empty());

    clear_engine_caches();  // simulate a fresh process
    const std::uint64_t hits_before = warm_hits();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        EXPECT_FALSE(warm.report().cold_start);
        EXPECT_GT(warm.imported_records(), 0u);
        const std::string rewarmed = optimize_bytes(input, params, &warm);
        EXPECT_EQ(rewarmed, cold);
    }
    EXPECT_GT(warm_hits(), hits_before);
}

TEST(WarmStartEndToEnd, BudgetedWarmRunMatchesBudgetedColdRun) {
    // The PR 2 invariant extended to disk: imported entries replay their
    // stored WorkCost, so the budget exhausts at the same point warm or
    // cold and the committed bytes agree.
    TempDir dir("budget");
    const Aig input = ripple_carry_adder(8);
    LookaheadParams params;
    params.max_iterations = 4;
    params.work_budget = 400;

    clear_engine_caches();
    std::string cold;
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        cold = optimize_bytes(input, params, &warm);
        warm.finalize();
    }

    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        EXPECT_GT(warm.imported_records(), 0u);
        EXPECT_EQ(optimize_bytes(input, params, &warm), cold);
    }
}

TEST(WarmStartEndToEnd, CorruptedStoreFallsBackToColdStart) {
    TempDir dir("corrupt_e2e");
    const Aig input = ripple_carry_adder(8);
    LookaheadParams params;
    params.max_iterations = 4;

    clear_engine_caches();
    std::string cold;
    {
        WarmStart warm(dir.str(), StoreMode::ReadWrite);
        cold = optimize_bytes(input, params, &warm);
        warm.finalize();
    }

    // Mangle every shard in the directory.
    for (const auto& shard : shard_files(dir.path)) {
        std::string bytes = slurp(shard);
        bytes = bytes.substr(0, bytes.size() / 2);
        if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x10;
        dump(shard, bytes);
    }

    clear_engine_caches();
    {
        WarmStart warm(dir.str(), StoreMode::Read);
        EXPECT_TRUE(warm.report().cold_start);
        EXPECT_GT(warm.report().files_rejected, 0u);
        EXPECT_EQ(warm.imported_records(), 0u);
        // Cold recompute, deterministic: same bytes, no crash.
        EXPECT_EQ(optimize_bytes(input, params, &warm), cold);
    }
}

TEST(WarmStartEndToEnd, WriteOnlyModeStaysColdButPublishes) {
    TempDir dir("writeonly");
    publish_one_shard(dir);
    const Aig input = ripple_carry_adder(6);
    LookaheadParams params;
    params.max_iterations = 3;

    clear_engine_caches();
    WarmStart warm(dir.str(), StoreMode::Write);
    EXPECT_EQ(warm.imported_records(), 0u);  // write mode never imports
    (void)optimize_bytes(input, params, &warm);
    warm.finalize();
    EXPECT_GE(shard_files(dir.path).size(), 1u);
}

}  // namespace
}  // namespace lls
