//===- tests/StatsTest.cpp - The --stats text of every counter set --------===//
//
// Pins the full text of each counter renderer with every field set, by
// name, to a distinct value and each optional group on and off. The
// expected strings were recorded from the renderers as they stood before
// the counters were declared as lists, less the emit-plan words that went
// with the plans, so the lists must reproduce them byte for byte. A second
// suite checks that docs/OPERATIONS.md section 5
// has a glossary row for every word the lists print.
//
//===----------------------------------------------------------------------===//

#include "runtime/RuntimeStats.h"
#include "server/ServerStats.h"
#include "speculate/SpeculationStats.h"
#include "tier/TierController.h"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>

using namespace dyc;

namespace {

runtime::RegionStats filledRegion(bool Tier) {
  runtime::RegionStats S;
  S.SpecializationRuns = 101;
  S.WorkItems = 102;
  S.InstructionsGenerated = 103;
  S.StaticLoadsExecuted = 104;
  S.StaticCallsExecuted = 105;
  S.StaticCallMemoHits = 106;
  S.ZcpApplied = 107;
  S.DeadAssignsEliminated = 108;
  S.MaterializedDeferred = 109;
  S.StrengthReduced = 110;
  S.BranchesFolded = 111;
  S.DynamicBranchesEmitted = 112;
  S.Dispatches = 113;
  S.CacheHits = 114;
  S.CacheMisses = 115;
  S.DispatchSitesCreated = 116;
  S.Evictions = 117;
  S.CodeCapHits = 118;
  S.MaxBlockInstances = 119;
  S.TierEnabled = Tier;
  S.ColdExecs = 120;
  S.WarmExecs = 121;
  S.WarmPromotions = 122;
  S.HotPromotions = 123;
  S.HotInstalls = 124;
  S.OsrEntries = 125;
  S.OsrPolls = 126;
  return S;
}

server::ServerStatsSnapshot filledServer(bool Fallback, bool Tier,
                                                      bool MultiTenant) {
  server::ServerStatsSnapshot S;
  S.Dispatches = 201;
  S.CacheHits = 202;
  S.CacheMisses = 203;
  S.Fallbacks = 204;
  S.FallbacksInFlight = Fallback ? 205 : 0;
  S.FallbacksFailed = Fallback ? 206 : 0;
  S.FallbacksNotRequested = Fallback ? 207 : 0;
  S.JobsEnqueued = 208;
  S.JobsCoalesced = 209;
  S.InlineSpecs = 210;
  S.SpecRuns = 211;
  S.Evictions = 212;
  S.ChainsCreated = 213;
  S.ChainsCollected = 214;
  S.SnapshotsRetired = 215;
  S.SnapshotsFreed = 216;
  S.TierEnabled = Tier;
  S.ColdExecs = 217;
  S.WarmExecs = 218;
  S.WarmPromotions = 219;
  S.HotPromotions = 220;
  S.HotInstalls = 221;
  S.OsrEntries = 222;
  S.OsrPolls = 223;
  S.CompileQueueDepth = 224;
  S.MultiTenant = MultiTenant;
  S.Tenants = 228;
  S.DedupHits = 229;
  S.QuotaRejections = 230;
  S.WarmHits = 231;
  S.StoreChains = 232;
  return S;
}

speculate::SpeculationStats filledSpeculation() {
  speculate::SpeculationStats S;
  S.CallsObserved = 301;
  S.Promotions = 302;
  S.PromotionsDeclined = 303;
  S.Demotions = 304;
  S.GuardChecks = 305;
  S.GuardHits = 306;
  S.GuardFailures = 307;
  S.ParamsBlacklisted = 308;
  return S;
}

const char *RegionMain =
    "runs=101 items=102 gen=103 sloads=104 scalls=105(memo 106) zcp=107 "
    "dae=108 mat=109 sr=110 folded-br=111 dyn-br=112 disp=113 hit=114 "
    "miss=115 sites=116 evict=117 cap-hits=118 max-copies=119";
const char *RegionTier = " cold=120 warm=121 warm-promo=122 hot-promo=123 "
                         "hot-installs=124 osr=125 osr-polls=126";

const char *ServerMain =
    "disp=201 hit=202 miss=203 fallback=204 enq=208 coalesced=209 "
    "inline=210 runs=211 evict=212 chains=213 collected=214 snaps=216/215";
const char *ServerFallback = " fb-inflight=205 fb-failed=206 fb-skip=207";
const char *ServerTier =
    " tier[cold=217 warm=218 warm-promo=219 hot-promo=220 hot-installs=221 "
    "osr=222 osr-polls=223 qdepth=224]";
const char *ServerTenancy =
    " mt[tenants=228 dedup=229 quota-rej=230 warm=231 store=232]";

} // namespace

TEST(StatsText, RegionStatsWithAndWithoutTiers) {
  EXPECT_EQ(filledRegion(false).toString(), RegionMain);
  EXPECT_EQ(filledRegion(true).toString(),
            std::string(RegionMain) + RegionTier);
}

TEST(StatsText, ServerSnapshotEveryGroupCombination) {
  for (int F = 0; F != 2; ++F)
    for (int T = 0; T != 2; ++T)
      for (int M = 0; M != 2; ++M) {
        std::string Want = std::string(ServerMain) +
                           (F ? ServerFallback : "") + (T ? ServerTier : "") +
                           (M ? ServerTenancy : "");
        EXPECT_EQ(filledServer(F, T, M).toString(), Want)
            << "fallback " << F << " tier " << T << " multi-tenant " << M;
      }
}

TEST(StatsText, OneFallbackCausePrintsTheGroup) {
  server::ServerStatsSnapshot S;
  S.FallbacksFailed = 206;
  EXPECT_EQ(S.toString(),
            "disp=0 hit=0 miss=0 fallback=0 enq=0 coalesced=0 inline=0 "
            "runs=0 evict=0 chains=0 collected=0 snaps=0/0 fb-inflight=0 "
            "fb-failed=206 fb-skip=0");
}

TEST(StatsText, SpeculationLines) {
  EXPECT_EQ(filledSpeculation().toString(),
            "speculation: 301 calls observed, 302 promoted, 303 declined, "
            "304 demoted, 308 blacklisted\n"
            "guards: 305 checks, 306 hits, 307 failures\n");
}

TEST(StatsText, TierAdvice) {
  tier::TierCounters T;
  T.ColdExecs = 1;
  T.WarmExecs = 2;
  T.WarmPromotions = 3;
  T.HotPromotions = 4;
  T.HotInstalls = 5;
  T.OsrEntries = 6;
  T.OsrPolls = 7;
  EXPECT_EQ(T.advice(), ", cold 1, warm 2 (promotions 3/4), installs 5, "
                        "osr 6 (polls 7)");
  runtime::RegionStats RS;
  T.copyTo(RS);
  RS.TierEnabled = true;
  // The tier words end the line.
  const std::string Text = RS.toString(),
                    Tier = " cold=1 warm=2 warm-promo=3 hot-promo=4 "
                           "hot-installs=5 osr=6 osr-polls=7";
  ASSERT_GE(Text.size(), Tier.size());
  EXPECT_EQ(Text.substr(Text.size() - Tier.size()), Tier);
}

namespace {

/// Every word a counter list prints, without the punctuation of the
/// labels that continue the word before them.
std::vector<std::string> printedLabels() {
  std::vector<std::string> L;
  auto Add = [&](const char *Label) {
    std::string W = Label;
    while (!W.empty() && (W[0] == '(' || W[0] == '/'))
      W.erase(0, 1);
    if (!W.empty())
      L.push_back(W);
  };
#define DYC_REGION_COUNTER(Name, Label) Add(Label);
#include "runtime/RegionCounters.def"
#define DYC_TIER_COUNTER(Name, Label, Advice) Add(Label);
#include "tier/TierCounters.def"
#define DYC_LEDGER(Name, Group, Label) Add(Label);
#define DYC_GAUGE(Name, Group, Label) Add(Label);
#include "server/ServerCounters.def"
  for (const char *Group : {"tier", "mt"})
    Add(Group);
  return L;
}

/// The words in backticks in the first column of the tables of
/// docs/OPERATIONS.md section 5.
std::set<std::string> glossaryWords() {
  std::ifstream In(DYC_SOURCE_DIR "/docs/OPERATIONS.md");
  std::set<std::string> Words;
  std::string Line;
  bool InSection = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("## ", 0) == 0)
      InSection = Line.rfind("## 5.", 0) == 0;
    if (!InSection || Line.rfind("|", 0) != 0)
      continue;
    std::string Cell = Line.substr(1, Line.find('|', 1) - 1);
    bool InTicks = false;
    std::string W;
    for (char C : Cell + ' ') {
      if (C == '`')
        InTicks = !InTicks;
      if (InTicks && (isalnum(static_cast<unsigned char>(C)) || C == '-')) {
        W += C;
        continue;
      }
      if (!W.empty())
        Words.insert(W);
      W.clear();
    }
  }
  return Words;
}

} // namespace

TEST(StatsDocs, EveryPrintedLabelHasAGlossaryRow) {
  std::set<std::string> Words = glossaryWords();
  ASSERT_FALSE(Words.empty()) << "no section 5 tables in docs/OPERATIONS.md";
  for (const std::string &L : printedLabels())
    EXPECT_TRUE(Words.count(L))
        << "'" << L << "' has no backticked row in docs/OPERATIONS.md "
        << "section 5";
}
