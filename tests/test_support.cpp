/**
 * @file
 * Support-layer tests: RNG determinism and bounds, table printer,
 * panic/fatal machinery, list splitting, and remaining BigInt
 * accessors.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "bigint/bigint.h"
#include "support/common.h"
#include "support/numparse.h"
#include "support/rng.h"
#include "support/splitlist.h"
#include "support/table.h"

namespace finesse {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(43);
    EXPECT_NE(Rng(42).next(), c.next());
}

TEST(Rng, BelowIsInRangeAndCoversSmallDomains)
{
    Rng rng(7);
    bool seen[5] = {};
    for (int i = 0; i < 500; ++i) {
        const u64 v = rng.below(5);
        ASSERT_LT(v, 5u);
        seen[v] = true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
    // nextDouble in [0, 1).
    for (int i = 0; i < 100; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(PanicFatal, ThrowDistinctTypes)
{
    EXPECT_THROW(panic("x"), PanicError);
    EXPECT_THROW(fatal("y"), FatalError);
    try {
        fatal("value was ", 42, " not ", 43);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
    }
}

TEST(SplitList, DropsEmptyFields)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(splitList("a:1,b:2,local"), (V{"a:1", "b:2", "local"}));
    EXPECT_EQ(splitList(",a,,b,"), (V{"a", "b"}));
    EXPECT_EQ(splitList(""), V{});
    EXPECT_EQ(splitList(",,"), V{});
    EXPECT_EQ(splitList("x;y", ';'), (V{"x", "y"}));
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"a", "long-header"});
    t.row({"xxxxxx", "1"});
    t.row({"y", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    // Header separator present; rows aligned on column starts.
    EXPECT_NE(out.find("---"), std::string::npos);
    const size_t col2InRow1 = out.find("1");
    const size_t col2InRow2 = out.find("2");
    const size_t line1Start = out.find("xxxxxx");
    const size_t line2Start = out.find("y", out.find("1"));
    EXPECT_EQ(col2InRow1 - line1Start, col2InRow2 - line2Start);
}

TEST(BigIntAccessors, LimbsAndDouble)
{
    const BigInt v = BigInt::fromString("0x123456789abcdef0fedcba98");
    EXPECT_EQ(v.limb(0), 0x9abcdef0fedcba98ull);
    EXPECT_EQ(v.limb(1), 0x12345678ull);
    EXPECT_EQ(v.limb(7), 0u);
    EXPECT_EQ(v.limbCount(), 2u);
    EXPECT_EQ(v.low64(), 0x9abcdef0fedcba98ull);
    EXPECT_NEAR(BigInt(u64{1000}).toDouble(), 1000.0, 1e-9);
    EXPECT_NEAR(BigInt(i64{-1000}).toDouble(), -1000.0, 1e-9);
    // toLimbs round trip.
    u64 buf[4];
    v.toLimbs(buf, 4);
    EXPECT_EQ(BigInt::fromLimbs(buf, 4), v);
}

TEST(BigIntAccessors, BitsAndParity)
{
    const BigInt v(u64{0b1011});
    EXPECT_EQ(v.bit(0), 1);
    EXPECT_EQ(v.bit(1), 1);
    EXPECT_EQ(v.bit(2), 0);
    EXPECT_EQ(v.bit(3), 1);
    EXPECT_EQ(v.bit(100), 0);
    EXPECT_TRUE(v.isOdd());
    EXPECT_TRUE(BigInt(u64{4}).isEven());
    EXPECT_TRUE(BigInt().isEven());
    EXPECT_EQ(v.bitLength(), 4);
    EXPECT_EQ(BigInt().bitLength(), 0);
}

TEST(BigIntPow, SmallExponents)
{
    EXPECT_EQ(BigInt(u64{3}).pow(0), BigInt(u64{1}));
    EXPECT_EQ(BigInt(u64{3}).pow(5), BigInt(u64{243}));
    EXPECT_EQ((-BigInt(u64{2})).pow(3), BigInt(i64{-8}));
}

TEST(NumParse, IntegerGrammar)
{
    const struct
    {
        const char *text;
        std::optional<int> want;
    } cases[] = {
        {"0", 0},
        {"7", 7},
        {"+7", 7},
        {"-7", -7},
        {"-0", 0},
        {"0x1f", 31},
        {"0XFF", 255},
        {"-0x10", -16},
        {"2147483647", 2147483647},
        {"-2147483648", -2147483647 - 1},
        {"2147483648", std::nullopt},
        {"4294967297", std::nullopt}, // no truncation into range
        {"0x10000000000000000", std::nullopt},
        {"", std::nullopt},
        {"+", std::nullopt},
        {"-", std::nullopt},
        {"0x", std::nullopt},
        {"038", std::nullopt}, // octal-looking leading zero
        {"010", std::nullopt},
        {"00", std::nullopt},
        {"38abc", std::nullopt},
        {"3 8", std::nullopt},
        {" 3", std::nullopt},
        {"3 ", std::nullopt},
        {"0x1g", std::nullopt},
        {"0x-1", std::nullopt},
        {"1e3", std::nullopt},
        {"--1", std::nullopt},
        {"+-1", std::nullopt},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        EXPECT_EQ(parseInt(c.text), c.want);
    }
}

TEST(NumParse, RangesAndSeeds)
{
    EXPECT_EQ(parseInt("5", 0, 5), 5);
    EXPECT_EQ(parseInt("6", 0, 5), std::nullopt);
    EXPECT_EQ(parseInt("-1", 0, 5), std::nullopt);
    EXPECT_EQ(parseInt("0", 1), std::nullopt);
    EXPECT_EQ(parseU64("18446744073709551615"), ~u64{0});
    EXPECT_EQ(parseU64("0xffffffffffffffff"), ~u64{0});
    EXPECT_EQ(parseU64("18446744073709551616"), std::nullopt);
    EXPECT_EQ(parseU64("-1"), std::nullopt); // strtoull would wrap
    EXPECT_EQ(parseU64("010"), std::nullopt);
    EXPECT_EQ(parseU64("-0"), u64{0});
}

TEST(NumParse, Reals)
{
    EXPECT_EQ(parseDouble("0.05"), 0.05);
    EXPECT_EQ(parseDouble("-1e-3"), -1e-3);
    EXPECT_EQ(parseDouble("3"), 3.0);
    for (const char *bad :
         {"", " 1", "0.05xyz", "1e999", "nan", "inf", "1.0 ", "."}) {
        SCOPED_TRACE(bad);
        EXPECT_EQ(parseDouble(bad), std::nullopt);
    }
}

} // namespace
} // namespace finesse
