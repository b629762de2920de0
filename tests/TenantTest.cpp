//===- tests/TenantTest.cpp - Multi-tenant SpecServer tests -----------------------===//
//
// Acceptance tests for the multi-tenant SpecServer: per-tenant counter
// parity against a dedicated single-tenant server, cross-tenant chain
// deduplication through the content-addressed store, refcounted release
// under eviction churn, per-tenant quota admission, warm-start
// serialization round-trips, a seeded fuzzer of the warm-start reader,
// and the untiered-counters regression.
//
//===----------------------------------------------------------------------===//

#include "core/Harness.h"
#include "server/SpecServer.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <tuple>

using namespace dyc;
using server::MissPolicy;
using server::ServerConfig;
using server::ServerStatsSnapshot;
using server::SpecServer;

namespace {

std::unique_ptr<core::DycContext> compile(const std::string &Src) {
  auto Ctx = std::make_unique<core::DycContext>();
  std::vector<std::string> Errors;
  bool OK = Ctx->compile(Src, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return Ctx;
}

// Triangular-sum region: f(n) = 0 + 1 + ... + n-1, one specialization per
// distinct n under cache_all.
const char *SumSrc = "int f(int n) {\n"
                     "  int i;\n"
                     "  make_static(n, i : cache_all);\n"
                     "  int s = 0;\n"
                     "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                     "  return s;\n"
                     "}";

// Two regions with different policies: hashed cache_all plus one-slot
// cache_one, so parity covers both the probing and the displacement paths.
const char *TwoRegionSrc = "int f(int n) {\n"
                           "  int i;\n"
                           "  make_static(n, i : cache_all);\n"
                           "  int s = 0;\n"
                           "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                           "  return s;\n"
                           "}\n"
                           "int g(int n) {\n"
                           "  int i;\n"
                           "  make_static(n, i : cache_one);\n"
                           "  int s = 0;\n"
                           "  for (i = 0; i < n; i = i + 1) {\n"
                           "    s = s + i + i;\n"
                           "  }\n"
                           "  return s;\n"
                           "}";

// The triangular sum offset by a dynamic k, then promoted again inside
// the region: the promotion interns a dispatch site, and every key adds a
// second chain.
const char *PromotedSumSrc = "int f(int n, int k) {\n"
                             "  int i;\n"
                             "  make_static(n, i : cache_all);\n"
                             "  int s = k;\n"
                             "  for (i = 0; i < n; i = i + 1) { s = s + i; }\n"
                             "  make_static(s);\n"
                             "  return s * 2;\n"
                             "}";

// A dynamic branch in every unrolled iteration, then a promotion whose
// dispatch site bakes the static n: every key adds two chains and one
// site, and the chains carry branches and a dispatch.
const char *BranchyPromotedSrc =
    "int f(int n, int k) {\n"
    "  int i;\n"
    "  make_static(n, i : cache_all);\n"
    "  int s = k;\n"
    "  for (i = 0; i < n; i = i + 1) {\n"
    "    if (s > 4) { s = s - i; } else { s = s + i * n; }\n"
    "  }\n"
    "  make_static(s);\n"
    "  return s * 2 + n;\n"
    "}";

int64_t triangular(int64_t N) { return N * (N - 1) / 2; }

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

uint32_t readU32At(const std::string &Bytes, size_t Off) {
  uint32_t V = 0;
  std::memcpy(&V, Bytes.data() + Off, sizeof(V));
  return V;
}

void writeU32At(std::string &Bytes, size_t Off, uint32_t V) {
  std::memcpy(&Bytes[Off], &V, sizeof(V));
}

/// Recomputes a warm-start file's trailing FNV-1a checksum over every
/// preceding byte, so a deliberately corrupted field reaches validation.
void resealChecksum(std::string &Bytes) {
  const size_t PayloadN = Bytes.size() - 8;
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != PayloadN; ++I) {
    H ^= static_cast<unsigned char>(Bytes[I]);
    H *= 1099511628211ull;
  }
  std::memcpy(&Bytes[PayloadN], &H, sizeof(H));
}

/// The tenant-ledger fields that must match a dedicated single-tenant
/// server bit for bit. Excluded by contract: ChainsCollected (shared
/// chains free globally), DedupHits/WarmHits (diagnostic — they record
/// *how* the tenant's view was served, not what it observed), and the
/// MultiTenant/Tenants/StoreChains/CompileQueueDepth gauges.
void expectLedgerEq(const ServerStatsSnapshot &Tenant,
                    const ServerStatsSnapshot &Dedicated,
                    const char *Label) {
  EXPECT_EQ(Tenant.Dispatches, Dedicated.Dispatches) << Label;
  EXPECT_EQ(Tenant.CacheHits, Dedicated.CacheHits) << Label;
  EXPECT_EQ(Tenant.CacheMisses, Dedicated.CacheMisses) << Label;
  EXPECT_EQ(Tenant.Fallbacks, Dedicated.Fallbacks) << Label;
  EXPECT_EQ(Tenant.FallbacksInFlight, Dedicated.FallbacksInFlight) << Label;
  EXPECT_EQ(Tenant.FallbacksFailed, Dedicated.FallbacksFailed) << Label;
  EXPECT_EQ(Tenant.FallbacksNotRequested, Dedicated.FallbacksNotRequested)
      << Label;
  EXPECT_EQ(Tenant.JobsEnqueued, Dedicated.JobsEnqueued) << Label;
  EXPECT_EQ(Tenant.JobsCoalesced, Dedicated.JobsCoalesced) << Label;
  EXPECT_EQ(Tenant.InlineSpecs, Dedicated.InlineSpecs) << Label;
  EXPECT_EQ(Tenant.SpecRuns, Dedicated.SpecRuns) << Label;
  EXPECT_EQ(Tenant.Evictions, Dedicated.Evictions) << Label;
  EXPECT_EQ(Tenant.ChainsCreated, Dedicated.ChainsCreated) << Label;
  EXPECT_EQ(Tenant.SnapshotsRetired, Dedicated.SnapshotsRetired) << Label;
  EXPECT_EQ(Tenant.SnapshotsFreed, Dedicated.SnapshotsFreed) << Label;
  EXPECT_EQ(Tenant.QuotaRejections, Dedicated.QuotaRejections) << Label;
}

/// Replays one call sequence through a dedicated single-tenant server and
/// through each of three tenants of one multi-tenant server, every server
/// bounded by \p MaxEntries resident entries per region (0: unbounded),
/// and expects every tenant to match the dedicated server bit for bit.
void expectPerTenantParity(size_t MaxEntries) {
  // Repeats exercise hits, fresh keys exercise compiles and (for g's
  // cache_one) displacement; the whole sequence replays per tenant.
  const std::vector<int64_t> Keys = {3, 5, 7, 3, 9, 5, 11, 3, 13, 7};
  constexpr uint32_t NumTenants = 3;

  // Dedicated single-tenant reference.
  auto RefCtx = compile(TwoRegionSrc);
  ServerConfig RefCfg;
  RefCfg.NumWorkers = 1;
  RefCfg.Budget.MaxEntries = MaxEntries;
  auto Ref = RefCtx->buildServer(OptFlags(), std::move(RefCfg));
  auto RefVM = Ref->makeClientVM();
  int RF = Ref->findFunction("f");
  int RG = Ref->findFunction("g");
  ASSERT_GE(RF, 0);
  ASSERT_GE(RG, 0);
  std::vector<int64_t> RefOut;
  for (int64_t N : Keys) {
    RefOut.push_back(
        RefVM->run(static_cast<uint32_t>(RF), {Word::fromInt(N)}).asInt());
    RefOut.push_back(
        RefVM->run(static_cast<uint32_t>(RG), {Word::fromInt(N)}).asInt());
  }
  ServerStatsSnapshot RefStats = Ref->stats();

  auto Ctx = compile(TwoRegionSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Budget.MaxEntries = MaxEntries;
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  int G = Server->findFunction("g");

  uint64_t TenantSpecRunsTotal = 0;
  for (uint32_t T = 1; T <= NumTenants; ++T) {
    auto Client = Server->makeClientVM(T);
    std::vector<int64_t> Out;
    for (int64_t N : Keys) {
      Out.push_back(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt());
      Out.push_back(
          Client->run(static_cast<uint32_t>(G), {Word::fromInt(N)}).asInt());
    }
    std::string Label = "tenant " + std::to_string(T);
    EXPECT_EQ(Out, RefOut) << Label;

    // The client's simulated machine must be indistinguishable from the
    // dedicated server's client: cycles, instructions, and I-cache.
    EXPECT_EQ(Client->execCycles(), RefVM->execCycles()) << Label;
    EXPECT_EQ(Client->dynCompCycles(), RefVM->dynCompCycles()) << Label;
    EXPECT_EQ(Client->instrsExecuted(), RefVM->instrsExecuted()) << Label;
    EXPECT_EQ(Client->icache().hits(), RefVM->icache().hits()) << Label;
    EXPECT_EQ(Client->icache().misses(), RefVM->icache().misses()) << Label;

    ServerStatsSnapshot TS = Server->tenantStats(T);
    expectLedgerEq(TS, RefStats, Label.c_str());
    TenantSpecRunsTotal += TS.SpecRuns;

    // With one tenant replayed, the server's per-region figures — which
    // the tenants share — are the dedicated server's: region counters,
    // evictions included, and the resident set.
    if (T == 1)
      for (size_t Ord = 0; Ord != Ref->numRegions(); ++Ord) {
        runtime::RegionStats Got = Server->regionStats(Ord);
        runtime::RegionStats Want = Ref->regionStats(Ord);
        EXPECT_EQ(Got.Evictions, Want.Evictions) << "region " << Ord;
        EXPECT_EQ(Got.toString(), Want.toString()) << "region " << Ord;
        EXPECT_EQ(Server->residentEntries(Ord), Ref->residentEntries(Ord))
            << "region " << Ord;
        EXPECT_EQ(Server->residentInstrs(Ord), Ref->residentInstrs(Ord))
            << "region " << Ord;
      }
  }

  // The two-ledger identity: every tenant-view specialization was either
  // a real generating-extension run or a store adoption.
  ServerStatsSnapshot Global = Server->stats();
  EXPECT_EQ(TenantSpecRunsTotal, Global.SpecRuns + Global.DedupHits);
  EXPECT_TRUE(Global.MultiTenant);
  EXPECT_EQ(Global.Tenants, NumTenants);
}

TEST(Tenant, PerTenantBitParityWithDedicatedServer) {
  expectPerTenantParity(0);
  {
    // A two-entry budget makes both servers evict.
    SCOPED_TRACE("Budget.MaxEntries = 2");
    expectPerTenantParity(2);
  }
}

TEST(Tenant, DedupOneChainPerUniqueKeyAcrossTenants) {
  const std::vector<int64_t> Keys = {3, 5, 7, 9};
  constexpr uint32_t NumTenants = 3;

  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");

  for (uint32_t T = 1; T <= NumTenants; ++T) {
    auto Client = Server->makeClientVM(T);
    for (int64_t N : Keys)
      EXPECT_EQ(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt(),
          triangular(N));
  }

  ServerStatsSnapshot S = Server->stats();
  // One generating-extension run per unique key, no matter how many
  // tenants asked; every other publication was an adoption.
  EXPECT_EQ(S.SpecRuns, Keys.size());
  EXPECT_EQ(S.ChainsCreated, Keys.size());
  EXPECT_EQ(S.DedupHits, (NumTenants - 1) * Keys.size());
  EXPECT_EQ(S.StoreChains, Keys.size());
  EXPECT_EQ(Server->storeChains(), Keys.size());
  EXPECT_EQ(Server->liveChains(), Keys.size());
  // Each tenant's view still shows a full private history.
  for (uint32_t T = 1; T <= NumTenants; ++T) {
    ServerStatsSnapshot TS = Server->tenantStats(T);
    EXPECT_EQ(TS.SpecRuns, Keys.size()) << "tenant " << T;
    EXPECT_EQ(TS.ChainsCreated, Keys.size()) << "tenant " << T;
  }
}

TEST(Tenant, RefcountLifecycleUnderEvictionChurn) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.Budget.MaxEntries = 1; // every fresh key evicts the previous
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  auto Run = [&](vm::VM &M, int64_t N) {
    EXPECT_EQ(M.run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt(),
              triangular(N));
  };

  auto V1 = Server->makeClientVM(1);
  auto V2 = Server->makeClientVM(2);

  Run(*V1, 3); // compile 3: refs{3:1}
  Run(*V2, 3); // adopt 3:   refs{3:2}
  EXPECT_EQ(Server->storeChains(), 1u);
  Run(*V1, 4); // compile 4; tenant 1 evicts 3 -> refs{3:1, 4:1}
  EXPECT_EQ(Server->storeChains(), 2u);
  EXPECT_EQ(Server->liveChains(), 2u);
  Run(*V1, 3); // re-adopt 3; tenant 1 evicts 4 -> last ref: 4 retired
  EXPECT_EQ(Server->storeChains(), 1u);

  // The retired chain is only freed at the quiescent safe point.
  EXPECT_EQ(Server->liveChains(), 2u);
  size_t Freed = 0;
  ASSERT_TRUE(Server->trimQuiescent(nullptr, &Freed));
  EXPECT_EQ(Freed, 1u);
  EXPECT_EQ(Server->liveChains(), 1u);

  // Tenant 2 kept executing chain 3 through all of tenant 1's churn.
  Run(*V2, 3);
  EXPECT_EQ(Server->tenantStats(2).CacheHits, 1u);

  Run(*V2, 5); // compile 5; tenant 2 drops 3 -> refs{3:1 (tenant 1), 5:1}
  EXPECT_EQ(Server->storeChains(), 2u);
  Run(*V1, 6); // compile 6; tenant 1 drops 3 -> last ref: 3 retired
  EXPECT_EQ(Server->storeChains(), 2u);
  ASSERT_TRUE(Server->trimQuiescent(nullptr, &Freed));
  EXPECT_EQ(Freed, 1u);
  EXPECT_EQ(Server->liveChains(), 2u);

  ServerStatsSnapshot S = Server->stats();
  EXPECT_EQ(S.SpecRuns, 4u);   // compiles: 3, 4, 5, 6
  EXPECT_EQ(S.DedupHits, 2u);  // tenant 2's and tenant 1's adoptions of 3
  EXPECT_EQ(S.ChainsCollected, 2u);
}

TEST(Tenant, QuotaRejectsMissesPastInFlightCap) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  Cfg.OnMiss = MissPolicy::Fallback;
  Cfg.Quota.MaxInFlightCompiles = 1;
  auto Hold = std::make_shared<std::atomic<bool>>(true);
  Cfg.HoldCompiles = Hold;
  auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  auto Run = [&](vm::VM &M, int64_t N) {
    EXPECT_EQ(M.run(static_cast<uint32_t>(F), {Word::fromInt(N)}).asInt(),
              triangular(N));
  };

  auto V1 = Server->makeClientVM(1);
  auto V2 = Server->makeClientVM(2);

  Run(*V1, 3); // enqueues tenant 1's one allowed compile (held); fallback
  Run(*V1, 4); // past the cap: refused outright
  Run(*V1, 3); // refused too — a coalesced join would dodge the cap
  // Tenant 2 is at zero in-flight: its miss is admitted normally.
  Run(*V2, 5);

  ServerStatsSnapshot T1 = Server->tenantStats(1);
  EXPECT_EQ(T1.QuotaRejections, 2u);
  EXPECT_EQ(T1.JobsEnqueued, 1u);
  EXPECT_EQ(T1.JobsCoalesced, 0u);
  EXPECT_EQ(T1.Fallbacks, 3u);
  EXPECT_EQ(T1.FallbacksNotRequested, 2u);
  EXPECT_EQ(Server->tenantStats(2).QuotaRejections, 0u);
  EXPECT_EQ(Server->tenantStats(2).JobsEnqueued, 1u);
  EXPECT_EQ(Server->stats().QuotaRejections, 2u);

  // Release the held compiles; the tenant's slot frees and normal service
  // resumes.
  Hold->store(false, std::memory_order_release);
  Server->drain();
  Run(*V1, 3); // hit now
  EXPECT_EQ(Server->tenantStats(1).CacheHits, 1u);
  Run(*V1, 4); // admitted this time
  Server->drain();
  Run(*V1, 4);
  EXPECT_EQ(Server->tenantStats(1).QuotaRejections, 2u); // unchanged
  EXPECT_EQ(Server->tenantStats(1).CacheHits, 2u);
}

/// Runs \p Keys on a server that persists its chain store to \p Path,
/// then on a second one that warm-starts from the file, and expects the
/// warm run to compile nothing and to leave its client's machine counters
/// equal to the cold run's. \p MultiTenant builds with buildMultiTenant
/// and a client of tenant 1, otherwise with buildServer and its default
/// client (tenant 0).
void expectWarmRoundTrip(bool MultiTenant, const std::string &Path,
                         const std::vector<int64_t> &Keys, size_t Chains) {
  const uint32_t Tenant = MultiTenant ? 1 : 0;
  auto Build = [&](core::DycContext &Ctx) {
    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    Cfg.WarmStartPath = Path;
    return MultiTenant ? Ctx.buildMultiTenant(OptFlags(), std::move(Cfg))
                       : Ctx.buildServer(OptFlags(), std::move(Cfg));
  };
  std::remove(Path.c_str());

  uint64_t ColdExecCycles = 0, ColdDynComp = 0, ColdInstrs = 0;
  uint64_t ColdIHits = 0, ColdIMisses = 0;
  std::vector<int64_t> ColdOut;
  {
    auto Ctx = compile(PromotedSumSrc);
    auto Server = Build(*Ctx);
    int F = Server->findFunction("f");
    auto Client = Server->makeClientVM(Tenant);
    for (int64_t N : Keys)
      ColdOut.push_back(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N), Word::fromInt(1)}).asInt());
    ColdExecCycles = Client->execCycles();
    ColdDynComp = Client->dynCompCycles();
    ColdInstrs = Client->instrsExecuted();
    ColdIHits = Client->icache().hits();
    ColdIMisses = Client->icache().misses();
    EXPECT_EQ(Server->stats().SpecRuns, Chains);
    // Destruction serializes the store to Path.
  }

  {
    auto Ctx = compile(PromotedSumSrc);
    auto Server = Build(*Ctx);
    EXPECT_EQ(Server->storeChains(), Chains); // loaded, unreferenced
    int F = Server->findFunction("f");
    auto Client = Server->makeClientVM(Tenant);
    std::vector<int64_t> WarmOut;
    for (int64_t N : Keys)
      WarmOut.push_back(
          Client->run(static_cast<uint32_t>(F), {Word::fromInt(N), Word::fromInt(1)}).asInt());
    EXPECT_EQ(WarmOut, ColdOut);

    ServerStatsSnapshot S = Server->stats();
    EXPECT_EQ(S.SpecRuns, 0u) << "warm start must not recompile";
    EXPECT_EQ(S.WarmHits, Chains);
    EXPECT_EQ(S.DedupHits, Chains);
    EXPECT_EQ(Server->tenantStats(Tenant).WarmHits, Chains);

    // The restored chains occupy the original simulated addresses, so the
    // warm client's machine counters are bit-identical to the cold run's.
    EXPECT_EQ(Client->execCycles(), ColdExecCycles);
    EXPECT_EQ(Client->dynCompCycles(), ColdDynComp);
    EXPECT_EQ(Client->instrsExecuted(), ColdInstrs);
    EXPECT_EQ(Client->icache().hits(), ColdIHits);
    EXPECT_EQ(Client->icache().misses(), ColdIMisses);
  }
}

TEST(Tenant, WarmStartRoundTripServesWarmHits) {
  const std::vector<int64_t> Keys = {3, 5, 7};
  const size_t Chains = 2 * Keys.size(); // region entry + internal promotion
  const std::string Path = "tenant_warm_test.dycwarm";
  {
    // Every server persists its store, a plain buildServer one included.
    SCOPED_TRACE("buildServer");
    expectWarmRoundTrip(false, Path, Keys, Chains);
  }
  // The multi-tenant round trip's file feeds the rejection checks below.
  expectWarmRoundTrip(true, Path, Keys, Chains);

  // A truncated or corrupted file must be rejected before any server state
  // changes: no chain enters the store and no site is interned. Every
  // prefix of the file is tried, then an out-of-range EntryPC carrying a
  // valid checksum, then a flipped code byte (the checksum catches it).
  {
    std::string Bytes = readFile(Path);
    ASSERT_GT(Bytes.size(), 8u);
    auto Ctx = compile(PromotedSumSrc);
    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
    const std::string Bad = "tenant_warm_test_bad.dycwarm";
    auto ExpectRejected = [&](const std::string &Contents,
                              const std::string &What) {
      writeFile(Bad, Contents);
      EXPECT_FALSE(Server->loadCacheFrom(Bad)) << What;
      EXPECT_EQ(Server->storeChains(), 0u) << What;
      EXPECT_EQ(Server->numSites(), 0u) << What;
    };
    for (size_t N = 0; N != Bytes.size(); ++N)
      ExpectRejected(Bytes.substr(0, N), "truncated to " + std::to_string(N));

    // Layout: a 32-byte header, the site table (count, then per site two
    // u32s and a length-prefixed word list), the chain count, and the
    // first chain's region and promotion ids before its EntryPC.
    size_t Off = 32;
    uint32_t NumSites = readU32At(Bytes, Off);
    ASSERT_GT(NumSites, 0u); // the internal promotion's dispatch site
    Off += 4;
    for (uint32_t I = 0; I != NumSites; ++I)
      Off += 12 + 8 * static_cast<size_t>(readU32At(Bytes, Off + 8));
    size_t EntryPCOff = Off + 4 + 8;
    std::string BadEntry = Bytes;
    writeU32At(BadEntry, EntryPCOff, 0xffffff);
    resealChecksum(BadEntry);
    ExpectRejected(BadEntry, "EntryPC out of range");

    // The chain's key (length-prefixed words) and code length precede its
    // code; flip a bit of the first instruction's A operand.
    size_t KeyWords = readU32At(Bytes, EntryPCOff + 4);
    size_t CodeOff = EntryPCOff + 8 + 8 * KeyWords + 4;
    ASSERT_LT(CodeOff + 4, Bytes.size() - 8);
    std::string Flipped = Bytes;
    Flipped[CodeOff + 4] ^= 0x40;
    ExpectRejected(Flipped, "flipped code byte");

    // The intact file still loads into the same server afterwards.
    EXPECT_TRUE(Server->loadCacheFrom(Path));
    EXPECT_EQ(Server->storeChains(), Chains);
    std::remove(Bad.c_str());
  }

  // A server built with different optimization settings must reject the
  // file (fingerprint mismatch) and load nothing.
  {
    auto Ctx = compile(PromotedSumSrc);
    OptFlags Different;
    Different.StrengthReduction = false;
    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    auto Server = Ctx->buildMultiTenant(Different, std::move(Cfg));
    EXPECT_FALSE(Server->loadCacheFrom(Path));
    EXPECT_EQ(Server->storeChains(), 0u);
  }
  std::remove(Path.c_str());
}

/// A warm-start file parsed by the test's own reader (the layout
/// saveCacheTo writes): every record, plus the offsets of the fields the
/// fuzzer corrupts. Ok is false when the bytes do not parse.
struct WarmImage {
  struct Site {
    uint32_t Ord = 0, PromoId = 0;
    std::vector<uint64_t> Baked;
  };
  struct Chain {
    uint32_t Ord = 0, PromoId = 0, EntryPC = 0;
    std::vector<uint64_t> Key;
    std::vector<vm::Instr> Code;
    std::vector<std::pair<uint32_t, uint32_t>> Exit, Dispatch, Osr;
  };
  /// A u32 field and the first value out of its range (0: unbounded).
  struct Field {
    size_t Off = 0;
    uint32_t Bound = 0;
  };
  bool Ok = false;
  std::vector<Site> Sites;
  std::vector<Chain> Chains;
  std::vector<Field> Ids;    ///< region and promotion ids
  /// Entry, stub, OSR, branch-target and ExitRegion resume PCs.
  std::vector<Field> Pcs;
  std::vector<Field> Counts; ///< length prefixes
  std::vector<Field> Regs;   ///< register operands of chain code
  std::vector<size_t> DispatchImms; ///< Imm fields of Dispatch instrs
  /// [Off, Off+Len) byte ranges of each site's and each chain's identity
  /// (ids plus value list), for duplicating one record over another.
  std::vector<std::pair<size_t, size_t>> SiteRecs, ChainRecs;
};

/// Which operands of an \p O instruction name frame registers, read off
/// the operand formats in vm/Bytecode.h, independently of the loader's
/// check. A of a Call, CallExt or Ret may also be NoReg (void); the
/// Call/CallExt argument window R[B..B+C) is checked on its own.
struct RegOperands {
  bool A = false, B = false, C = false;
  bool AMayBeNone = false;
};

RegOperands regOperands(vm::Op O) {
  using vm::Op;
  RegOperands R;
  switch (O) {
  case Op::Br: case Op::EnterRegion: case Op::Dispatch: case Op::ExitRegion:
  case Op::Halt:
    return R;
  case Op::Call: case Op::CallExt: case Op::Ret:
    R.A = R.AMayBeNone = true;
    return R;
  case Op::ConstI: case Op::ConstF: case Op::LoadAbs: case Op::StoreAbs:
  case Op::CondBr:
    R.A = true;
    return R;
  default:
    break;
  }
  // Everything else reads B; the reg-reg binary forms read C too.
  R.A = R.B = true;
  R.C = (O >= Op::Add && O <= Op::Shr) || (O >= Op::FAdd && O <= Op::FDiv) ||
        (O >= Op::CmpEq && O <= Op::CmpGe) ||
        (O >= Op::FCmpEq && O <= Op::FCmpGe);
  return R;
}

/// \p StaticN is the region function's static code size, the bound of
/// ExitRegion resume offsets, and \p NumRegs its frame size, the bound of
/// register operands (the fuzzed program has one region).
WarmImage parseWarm(const std::string &B, uint32_t NumRegions,
                    uint32_t StaticN, uint32_t NumRegs) {
  WarmImage W;
  if (B.size() < 40)
    return W;
  const size_t End = B.size() - 8;
  size_t P = 32;
  auto U32 = [&](uint32_t &V) {
    if (End - P < 4)
      return false;
    std::memcpy(&V, B.data() + P, 4);
    P += 4;
    return true;
  };
  auto Words = [&](std::vector<uint64_t> &Ws) {
    uint32_t N = 0;
    W.Counts.push_back({P, 0});
    if (!U32(N) || N > (End - P) / 8)
      return false;
    Ws.resize(N);
    for (uint64_t &V : Ws) {
      std::memcpy(&V, B.data() + P, 8);
      P += 8;
    }
    return true;
  };
  auto Pairs = [&](std::vector<std::pair<uint32_t, uint32_t>> &M,
                   uint32_t CodeN) {
    uint32_t N = 0;
    W.Counts.push_back({P, 0});
    if (!U32(N) || N > (End - P) / 8)
      return false;
    for (uint32_t I = 0; I != N; ++I) {
      std::pair<uint32_t, uint32_t> KV;
      W.Pcs.push_back({P + 4, CodeN});
      if (!U32(KV.first) || !U32(KV.second))
        return false;
      M.push_back(KV);
    }
    return true;
  };
  uint32_t NumSites = 0;
  W.Counts.push_back({P, 0});
  if (!U32(NumSites))
    return W;
  for (uint32_t I = 0; I != NumSites; ++I) {
    WarmImage::Site S;
    size_t Start = P;
    W.Ids.push_back({P, NumRegions});
    W.Ids.push_back({P + 4, 0});
    if (!U32(S.Ord) || !U32(S.PromoId) || !Words(S.Baked))
      return W;
    W.SiteRecs.push_back({Start, P - Start});
    W.Sites.push_back(std::move(S));
  }
  uint32_t NumChains = 0;
  W.Counts.push_back({P, 0});
  if (!U32(NumChains))
    return W;
  for (uint32_t I = 0; I != NumChains; ++I) {
    WarmImage::Chain C;
    size_t Start = P;
    W.Ids.push_back({P, NumRegions});
    W.Ids.push_back({P + 4, 0});
    size_t EntryOff = P + 8;
    if (!U32(C.Ord) || !U32(C.PromoId) || !U32(C.EntryPC) || !Words(C.Key))
      return W;
    W.ChainRecs.push_back({Start, P - Start});
    uint32_t CodeN = 0;
    W.Counts.push_back({P, 0});
    if (!U32(CodeN) || CodeN > (End - P) / sizeof(vm::Instr))
      return W;
    W.Pcs.push_back({EntryOff, CodeN});
    for (uint32_t K = 0; K != CodeN; ++K) {
      const size_t At = P + K * sizeof(vm::Instr);
      vm::Instr In;
      std::memcpy(&In, B.data() + At, sizeof(In));
      if (In.Opcode == vm::Op::Br || In.Opcode == vm::Op::CondBr)
        W.Pcs.push_back({At + offsetof(vm::Instr, B), CodeN});
      if (In.Opcode == vm::Op::CondBr)
        W.Pcs.push_back({At + offsetof(vm::Instr, C), CodeN});
      if (In.Opcode == vm::Op::Dispatch)
        W.DispatchImms.push_back(At + offsetof(vm::Instr, Imm));
      if (In.Opcode == vm::Op::ExitRegion)
        W.Pcs.push_back({At + offsetof(vm::Instr, B), StaticN});
      const RegOperands R = regOperands(In.Opcode);
      if (R.A)
        W.Regs.push_back({At + offsetof(vm::Instr, A), NumRegs});
      if (R.B)
        W.Regs.push_back({At + offsetof(vm::Instr, B), NumRegs});
      if (R.C)
        W.Regs.push_back({At + offsetof(vm::Instr, C), NumRegs});
      C.Code.push_back(In);
    }
    P += CodeN * sizeof(vm::Instr);
    if (!Pairs(C.Exit, CodeN) || !Pairs(C.Dispatch, CodeN) ||
        !Pairs(C.Osr, CodeN))
      return W;
    W.Chains.push_back(std::move(C));
  }
  W.Ok = P == End;
  return W;
}

/// Asserts what a loaded warm-start image may contain: region and
/// promotion ids of real points, no two sites or chains with the same
/// identity, real opcodes, every register operand inside the region's
/// frame, every entry, stub, OSR and branch-target PC inside its chain,
/// every Dispatch naming an interned site, and every ExitRegion resuming
/// inside the region function's static code.
void expectLoadable(const WarmImage &W, const core::Executable &Ref,
                    const std::string &What) {
  ASSERT_TRUE(W.Ok) << What;
  const runtime::RegionExecutionCore &Core = Ref.RT->core();
  auto ValidPoint = [&](uint32_t Ord, uint32_t PromoId) {
    return Ord < Core.numRegions() && PromoId < Core.numPromos(Ord);
  };
  std::set<std::tuple<uint32_t, uint32_t, std::vector<uint64_t>>> Seen;
  for (const WarmImage::Site &S : W.Sites) {
    EXPECT_TRUE(ValidPoint(S.Ord, S.PromoId)) << What;
    EXPECT_TRUE(Seen.insert({S.Ord, S.PromoId, S.Baked}).second)
        << What << ": duplicate site";
  }
  Seen.clear();
  for (const WarmImage::Chain &C : W.Chains) {
    const uint32_t N = static_cast<uint32_t>(C.Code.size());
    EXPECT_TRUE(ValidPoint(C.Ord, C.PromoId)) << What;
    EXPECT_TRUE(Seen.insert({C.Ord, C.PromoId, C.Key}).second)
        << What << ": duplicate chain";
    EXPECT_LT(C.EntryPC, N) << What;
    const size_t StaticN =
        C.Ord < Core.numRegions()
            ? Ref.Prog
                  .function(static_cast<uint32_t>(Core.regionFuncIdx(C.Ord)))
                  .Code.size()
            : 0;
    for (const auto *M : {&C.Exit, &C.Dispatch, &C.Osr})
      for (const auto &KV : *M)
        EXPECT_LT(KV.second, N) << What;
    const uint32_t NumRegs =
        C.Ord < Core.numRegions() ? Core.regionNumRegs(C.Ord) : 0;
    for (const vm::Instr &In : C.Code) {
      EXPECT_LT(static_cast<unsigned>(In.Opcode), vm::NumOps) << What;
      const RegOperands R = regOperands(In.Opcode);
      if (R.A && !(R.AMayBeNone && In.A == vm::NoReg)) {
        EXPECT_LT(In.A, NumRegs) << What << ": register operand";
      }
      if (R.B) {
        EXPECT_LT(In.B, NumRegs) << What << ": register operand";
      }
      if (R.C) {
        EXPECT_LT(In.C, NumRegs) << What << ": register operand";
      }
      if (In.Opcode == vm::Op::Call || In.Opcode == vm::Op::CallExt) {
        EXPECT_LE(uint64_t(In.B) + In.C, NumRegs) << What << ": arguments";
      }
      if (In.Opcode == vm::Op::ExitRegion) {
        EXPECT_LT(In.B, StaticN) << What << ": exit resume offset";
      }
      if (In.Opcode == vm::Op::Br || In.Opcode == vm::Op::CondBr) {
        EXPECT_LT(In.B, N) << What << ": branch target";
      }
      if (In.Opcode == vm::Op::CondBr) {
        EXPECT_LT(In.C, N) << What << ": branch target";
      }
      if (In.Opcode == vm::Op::Dispatch) {
        EXPECT_LT(In.Imm, 0) << What;
        EXPECT_LE(-In.Imm, static_cast<int64_t>(W.Sites.size()))
            << What << ": dispatch site";
      }
    }
  }
}

// Warm-start reader fuzzer: 240 seeded mutations of a saved file — byte
// flips, truncations, out-of-range ids, PCs, length prefixes and register
// operands, and one record's identity copied over another's — each
// resealed with a fresh checksum so it reaches the range checks.
// loadCacheFrom must either reject the file and leave the chain store and
// site table untouched, or load all of it, with every id, PC and register
// in range.
TEST(Tenant, WarmStartReaderFuzz) {
  const std::string Path = "tenant_warm_fuzz.dycwarm";
  const std::string Bad = "tenant_warm_fuzz_bad.dycwarm";
  const std::string Out = "tenant_warm_fuzz_out.dycwarm";
  std::remove(Path.c_str());
  auto Ctx = compile(BranchyPromotedSrc);
  {
    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    Cfg.WarmStartPath = Path;
    auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
    int F = Server->findFunction("f");
    auto Client = Server->makeClientVM(1);
    for (int64_t N : {3, 5, 7, 9})
      Client->run(static_cast<uint32_t>(F),
                  {Word::fromInt(N), Word::fromInt(1)});
    // Destruction serializes the store to Path.
  }
  // The inline build of the same module reports the valid point ids and
  // lowers the same static code.
  auto Ref = Ctx->buildDynamic();
  const uint32_t NumRegions =
      static_cast<uint32_t>(Ref->RT->core().numRegions());
  const uint32_t StaticN = static_cast<uint32_t>(
      Ref->Prog.function(static_cast<uint32_t>(Ref->findFunction("f")))
          .Code.size());
  const uint32_t NumRegs = Ref->RT->core().regionNumRegs(0);
  const std::string Orig = readFile(Path);
  const WarmImage Base = parseWarm(Orig, NumRegions, StaticN, NumRegs);
  ASSERT_TRUE(Base.Ok);
  ASSERT_EQ(Base.Sites.size(), 4u);
  ASSERT_EQ(Base.Chains.size(), 8u);
  ASSERT_FALSE(Base.DispatchImms.empty());
  ASSERT_FALSE(Base.Regs.empty());
  expectLoadable(Base, *Ref, "unmutated");

  std::mt19937_64 Rng(0xD1C5EED);
  auto Pick = [&](size_t N) { return static_cast<size_t>(Rng() % N); };
  auto OutOfRange = [&](uint32_t Bound) {
    return Pick(3) == 0 ? 0xffffffffu : Bound + static_cast<uint32_t>(Pick(4));
  };
  unsigned Accepted = 0, Rejected = 0;
  for (unsigned Iter = 0; Iter != 240; ++Iter) {
    std::string M = Orig;
    std::string What = "mutation " + std::to_string(Iter);
    switch (Iter % 7) {
    case 0: { // byte flip
      size_t At = Pick(M.size() - 8);
      M[At] = static_cast<char>(M[At] ^ (1u << Pick(8)));
      What += ": flip byte " + std::to_string(At);
      break;
    }
    case 1: // truncation
      M.resize(Pick(M.size()));
      What += ": truncate to " + std::to_string(M.size());
      break;
    case 2: { // out-of-range region or promotion id, or dispatch site
      if (Pick(3) == 0) {
        size_t At = Base.DispatchImms[Pick(Base.DispatchImms.size())];
        int64_t Imm = -static_cast<int64_t>(Base.Sites.size() + 1 + Pick(3));
        std::memcpy(&M[At], &Imm, sizeof(Imm));
        What += ": dispatch site at " + std::to_string(At);
        break;
      }
      const WarmImage::Field &Fd = Base.Ids[Pick(Base.Ids.size())];
      writeU32At(M, Fd.Off, OutOfRange(Fd.Bound ? Fd.Bound : 8));
      What += ": id at " + std::to_string(Fd.Off);
      break;
    }
    case 3: { // out-of-range PC
      const WarmImage::Field &Fd = Base.Pcs[Pick(Base.Pcs.size())];
      writeU32At(M, Fd.Off, OutOfRange(Fd.Bound));
      What += ": pc at " + std::to_string(Fd.Off);
      break;
    }
    case 4: { // length prefix off by a little or a lot
      const WarmImage::Field &Fd = Base.Counts[Pick(Base.Counts.size())];
      uint32_t V = readU32At(M, Fd.Off);
      uint32_t Bumps[] = {V + 1, V - 1, 0xffffffffu, V * 2 + 1};
      writeU32At(M, Fd.Off, Bumps[Pick(4)]);
      What += ": count at " + std::to_string(Fd.Off);
      break;
    }
    case 5: { // one site's or chain's identity copied over another's
      const auto &Recs = Pick(2) ? Base.SiteRecs : Base.ChainRecs;
      const auto &From = Recs[Pick(Recs.size())];
      const auto &To = Recs[Pick(Recs.size())];
      if (From.second == To.second)
        M.replace(To.first, To.second, Orig, From.first, From.second);
      What += ": duplicate record at " + std::to_string(To.first);
      break;
    }
    case 6: { // register operand outside the frame
      const WarmImage::Field &Fd = Base.Regs[Pick(Base.Regs.size())];
      writeU32At(M, Fd.Off, OutOfRange(Fd.Bound));
      What += ": register at " + std::to_string(Fd.Off);
      break;
    }
    }
    if (M.size() >= 8)
      resealChecksum(M);
    writeFile(Bad, M);

    ServerConfig Cfg;
    Cfg.NumWorkers = 1;
    auto Server = Ctx->buildMultiTenant(OptFlags(), std::move(Cfg));
    if (!Server->loadCacheFrom(Bad)) {
      ++Rejected;
      EXPECT_EQ(Server->storeChains(), 0u) << What;
      EXPECT_EQ(Server->numSites(), 0u) << What;
      continue;
    }
    ++Accepted;
    const WarmImage In = parseWarm(M, NumRegions, StaticN, NumRegs);
    ASSERT_TRUE(In.Ok) << What << ": loaded a file that does not parse";
    EXPECT_EQ(Server->storeChains(), In.Chains.size()) << What;
    EXPECT_EQ(Server->numSites(), In.Sites.size()) << What;
    ASSERT_TRUE(Server->saveCacheTo(Out)) << What;
    expectLoadable(parseWarm(readFile(Out), NumRegions, StaticN, NumRegs),
                   *Ref, What);
  }
  // Both outcomes must occur, or the mutations are not reaching the
  // checks they are meant to probe.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
  std::remove(Path.c_str());
  std::remove(Bad.c_str());
  std::remove(Out.c_str());
}

TEST(Tenant, TierCountersReportZerosWhenTieringOff) {
  auto Ctx = compile(SumSrc);
  ServerConfig Cfg;
  Cfg.NumWorkers = 1;
  auto Server = Ctx->buildServer(OptFlags(), std::move(Cfg));
  int F = Server->findFunction("f");
  auto Client = Server->makeClientVM();
  for (int64_t N : {3, 5, 3})
    EXPECT_EQ(Client->run(static_cast<uint32_t>(F), {Word::fromInt(N)})
                  .asInt(),
              triangular(N));

  ServerStatsSnapshot S = Server->stats();
  EXPECT_FALSE(S.TierEnabled);
  EXPECT_EQ(S.ColdExecs, 0u);
  EXPECT_EQ(S.WarmExecs, 0u);
  EXPECT_EQ(S.WarmPromotions, 0u);
  EXPECT_EQ(S.HotPromotions, 0u);
  EXPECT_EQ(S.HotInstalls, 0u);
  EXPECT_EQ(S.OsrEntries, 0u);
  EXPECT_EQ(S.OsrPolls, 0u);
  EXPECT_EQ(S.toString().find("tier["), std::string::npos);
  // Single-tenant servers don't render the multi-tenant block either.
  EXPECT_FALSE(S.MultiTenant);
  EXPECT_EQ(S.toString().find("mt["), std::string::npos);

  runtime::RegionStats RS = Server->regionStats(0);
  EXPECT_FALSE(RS.TierEnabled);
  EXPECT_EQ(RS.ColdExecs, 0u);
  EXPECT_EQ(RS.WarmExecs, 0u);
  EXPECT_EQ(RS.WarmPromotions, 0u);
  EXPECT_EQ(RS.HotPromotions, 0u);
  EXPECT_EQ(RS.HotInstalls, 0u);
  EXPECT_EQ(RS.OsrEntries, 0u);
  EXPECT_EQ(RS.OsrPolls, 0u);
}

} // namespace
