/**
 * @file
 * Config parser and config -> CompileOptions bridge tests.
 */
#include <gtest/gtest.h>

#include "core/options.h"

namespace finesse {
namespace {

TEST(Config, ParsesTypesAndComments)
{
    const Config cfg = Config::parse(R"(
# a comment
curve = BLS12-381
hw.long_lat = 26     # trailing comment
hw.beta = 0.125
optimize = false
name = hello world
)");
    EXPECT_EQ(cfg.getString("curve"), "BLS12-381");
    EXPECT_EQ(cfg.getInt("hw.long_lat"), 26);
    EXPECT_DOUBLE_EQ(cfg.getDouble("hw.beta"), 0.125);
    EXPECT_FALSE(cfg.getBool("optimize", true));
    EXPECT_EQ(cfg.getString("name"), "hello world");
    EXPECT_EQ(cfg.getInt("missing", 7), 7);
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, RejectsMalformed)
{
    EXPECT_THROW(Config::parse("novalue\n"), FatalError);
    EXPECT_THROW(Config::parse("= 3\n"), FatalError);
    const Config cfg = Config::parse("x = abc\n");
    EXPECT_THROW(cfg.getInt("x"), FatalError);
    EXPECT_THROW(cfg.getBool("x"), FatalError);

    // Numbers: trailing junk, octal-looking leading zeros and values
    // past the int range are fatal, and the error names the key.
    for (const char *text : {"hw.long_lat = 38abc\n",
                             "hw.long_lat = 038\n",
                             "hw.issue_width = 4294967297\n",
                             "hw.long_lat = 3 8\n", "hw.banks = 0x\n",
                             "hw.beta = 0.05xyz\n", "hw.beta = nan\n",
                             "hw.beta = 1e999\n", "jobs = -1\n",
                             "dse.retries = -2\n",
                             // Out-of-range hardware models fail
                             // before first use (no SIGFPE).
                             "hw.issue_width = 0\n", "hw.banks = 0\n",
                             "hw.short_lat = -3\n", "hw.inv_lat = -5\n",
                             "hw.fifo = true\nhw.fifo_depth = 0\n",
                             // Upper bounds: no multi-GB tracker.
                             "hw.inv_lat = 100000000\n",
                             "hw.inv_lat = 2147483647\n",
                             "hw.long_lat = 2147483647\n",
                             "hw.banks = 2000000000\n",
                             "hw.issue_width = 65\n",
                             "hw.lin_units = 65\n",
                             "hw.fifo = true\nhw.fifo_depth = 4097\n",
                             // No dse.* key exists, whatever the
                             // value; neither does dse_workers.
                             "dse.liveness_ms = -1\n",
                             "dse.group_deadline_ms = -5\n",
                             "dse.hedge_ms = -1\n",
                             "dse.connect_ms = -100\n",
                             "dse.respawns = -7\n", "dse.hedge_ms = 0\n",
                             "dse.fallback_local = true\n",
                             "dse.hosts = 127.0.0.1:7001,local\n",
                             "dse_workers = 2\n", "dse_workers = 0\n",
                             // Unknown keys: a typo must not run the
                             // default.
                             "hw.isue_width = 7\n", "curv = BN254N\n",
                             "variants.mul3 = karatsuba\n",
                             "variants.cyclotomic = false\n",
                             "dse.host = 127.0.0.1:7001\n"}) {
        SCOPED_TRACE(text);
        const Config bad = Config::parse(text);
        const std::string key = bad.entries().begin()->first;
        try {
            optionsFromConfig(bad);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
    // The FIFO depth is only read when the FIFO is on.
    EXPECT_EQ(optionsFromConfig(Config::parse("hw.fifo_depth = 0\n"))
                  .hw.fifoDepth,
              0);
}

TEST(Config, KeepsValidNumberForms)
{
    const Config cfg = Config::parse(R"(
a = 0
b = +7
c = -3
d = 0x1F
e = 2147483647
f = 1e-3
g = -0.5
)");
    EXPECT_EQ(cfg.getInt("a", 1), 0);
    EXPECT_EQ(cfg.getInt("b"), 7);
    EXPECT_EQ(cfg.getInt("c"), -3);
    EXPECT_EQ(cfg.getInt("d"), 31);
    EXPECT_EQ(cfg.getInt("e"), 2147483647);
    EXPECT_EQ(cfg.getDouble("f"), 1e-3);
    EXPECT_EQ(cfg.getDouble("g"), -0.5);
    EXPECT_THROW(cfg.getInt("c", 0, 0), FatalError); // below lo
}

TEST(ConfigBridge, BuildsCompileOptions)
{
    const Config cfg = Config::parse(R"(
curve = BLS12-446
optimize = true
schedule = false
part = miller
hw.long_lat = 26
hw.issue_width = 3
hw.lin_units = 2
hw.banks = 4
hw.fifo = true
variants.mul2 = schoolbook
variants.sqr6 = ch-sqr2
variants.mul12 = karatsuba
variants.g2_coords = projective
variants.cyclo = false
)");
    EXPECT_EQ(curveFromConfig(cfg), "BLS12-446");
    const CompileOptions opt = optionsFromConfig(cfg);
    EXPECT_FALSE(opt.listSchedule);
    EXPECT_EQ(opt.part, TracePart::MillerOnly);
    EXPECT_EQ(opt.hw.longLat, 26);
    EXPECT_EQ(opt.hw.issueWidth, 3);
    EXPECT_EQ(opt.hw.numBanks, 4);
    EXPECT_TRUE(opt.hw.writebackFifo);
    EXPECT_EQ(opt.variants.level(2).mul, MulVariant::Schoolbook);
    EXPECT_EQ(opt.variants.level(6).sqr, SqrVariant::CHSqr2);
    EXPECT_EQ(opt.variants.level(12).mul, MulVariant::Karatsuba);
    EXPECT_EQ(opt.variants.g2Coords, CoordSystem::Projective);
    EXPECT_FALSE(opt.variants.cyclotomicSqr);
}

TEST(ConfigBridge, DefaultsMatchPaperModel)
{
    const CompileOptions opt = optionsFromConfig(Config{});
    EXPECT_EQ(opt.hw.longLat, 38);
    EXPECT_EQ(opt.hw.shortLat, 8);
    EXPECT_EQ(opt.hw.issueWidth, 1);
    EXPECT_TRUE(opt.optimize);
    EXPECT_TRUE(opt.listSchedule);
    EXPECT_EQ(opt.part, TracePart::Full);
}

TEST(ConfigBridge, RejectsBadEnums)
{
    EXPECT_THROW(
        optionsFromConfig(Config::parse("variants.mul2 = toom\n")),
        FatalError);
    EXPECT_THROW(optionsFromConfig(Config::parse("part = half\n")),
                 FatalError);
}

} // namespace
} // namespace finesse
