/**
 * @file
 * Unit tests for mpress::util — units, formatting, tables, strings,
 * deterministic RNG, logging.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>

#include "sim/stream.hh"
#include "util/inline_function.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace mu = mpress::util;

TEST(Units, ByteConstants)
{
    EXPECT_EQ(mu::kKiB, 1024);
    EXPECT_EQ(mu::kMiB, 1024 * 1024);
    EXPECT_EQ(mu::kGiB, 1024LL * 1024 * 1024);
    EXPECT_EQ(mu::kGB, 1000000000LL);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(mu::toGiB(mu::kGiB), 1.0);
    EXPECT_DOUBLE_EQ(mu::toGB(32 * mu::kGB), 32.0);
    EXPECT_DOUBLE_EQ(mu::toMs(mu::kMsec), 1.0);
    EXPECT_DOUBLE_EQ(mu::toSeconds(mu::kSec), 1.0);
}

TEST(Units, BandwidthTransferTime)
{
    auto bw = mu::Bandwidth::fromGBps(10.0);
    EXPECT_DOUBLE_EQ(bw.gbps(), 10.0);
    // 10 GB at 10 GB/s = 1 second.
    EXPECT_EQ(bw.transferTime(10 * mu::kGB), mu::kSec);
    // Zero bytes moves in zero time.
    EXPECT_EQ(bw.transferTime(0), 0);
    // Tiny transfers still take at least one tick.
    EXPECT_GE(bw.transferTime(1), 1);
}

TEST(Units, BandwidthArithmetic)
{
    auto a = mu::Bandwidth::fromGBps(25.0);
    auto b = a * 2.0;
    EXPECT_DOUBLE_EQ(b.gbps(), 50.0);
    auto c = a + b;
    EXPECT_DOUBLE_EQ(c.gbps(), 75.0);
    EXPECT_TRUE(a < b);
    EXPECT_FALSE(b < a);
    EXPECT_FALSE(mu::Bandwidth().valid());
    EXPECT_TRUE(a.valid());
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(mu::formatBytes(512), "512.00 B");
    EXPECT_EQ(mu::formatBytes(2 * mu::kKiB), "2.00 KiB");
    EXPECT_EQ(mu::formatBytes(3 * mu::kMiB), "3.00 MiB");
    EXPECT_EQ(mu::formatBytes(5 * mu::kGiB), "5.00 GiB");
    EXPECT_EQ(mu::formatBytes(-2 * mu::kKiB), "-2.00 KiB");
}

TEST(Units, FormatExtremesDoNotOverflow)
{
    // -INT64_MIN is UB in the integer domain; the formatters must
    // negate as doubles.  Checked under -fsanitize=undefined.
    auto lo = std::numeric_limits<std::int64_t>::min();
    auto hi = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(mu::formatBytes(lo)[0], '-');
    EXPECT_NE(mu::formatBytes(hi).find("GiB"), std::string::npos);
    EXPECT_EQ(mu::formatTime(lo)[0], '-');
    EXPECT_NE(mu::formatTime(hi).find(" s"), std::string::npos);
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(mu::formatTime(500), "500.00 ns");
    EXPECT_EQ(mu::formatTime(2 * mu::kUsec), "2.00 us");
    EXPECT_EQ(mu::formatTime(3 * mu::kMsec), "3.00 ms");
    EXPECT_EQ(mu::formatTime(4 * mu::kSec), "4.00 s");
}

TEST(Strings, Format)
{
    EXPECT_EQ(mu::strformat("x=%d y=%s", 3, "abc"), "x=3 y=abc");
    EXPECT_EQ(mu::strformat("%.2f", 1.5), "1.50");
    EXPECT_EQ(mu::strformat("empty"), "empty");
}

TEST(Strings, SplitJoin)
{
    auto parts = mu::split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(mu::join(parts, "-"), "a-b--c");
    EXPECT_EQ(mu::join({}, ","), "");
    auto single = mu::split("solo", ',');
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], "solo");
}

TEST(Table, PrintAligned)
{
    mu::TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);

    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, Csv)
{
    mu::TextTable t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Random, Deterministic)
{
    mu::SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, BoundsRespected)
{
    mu::SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(10), 10u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(JsonParse, DocumentTreeWithMemberOrder)
{
    auto doc = mu::jsonParse(
        "{\"b\": 1, \"a\": [true, null, -2.5e1, \"x\"],"
        " \"nested\": {\"k\": \"v\"}}");
    ASSERT_TRUE(doc.ok) << doc.error;
    ASSERT_TRUE(doc.value.isObject());
    ASSERT_EQ(doc.value.members().size(), 3u);
    // Source order is preserved, not sorted.
    EXPECT_EQ(doc.value.members()[0].first, "b");
    EXPECT_EQ(doc.value.members()[1].first, "a");

    const auto *arr = doc.value.find("a");
    ASSERT_NE(arr, nullptr);
    ASSERT_TRUE(arr->isArray());
    ASSERT_EQ(arr->items().size(), 4u);
    EXPECT_TRUE(arr->items()[0].boolean());
    EXPECT_TRUE(arr->items()[1].isNull());
    EXPECT_EQ(arr->items()[2].number(), -25.0);
    EXPECT_EQ(arr->items()[3].str(), "x");

    const auto *nested = doc.value.find("nested");
    ASSERT_NE(nested, nullptr);
    EXPECT_EQ(nested->stringOr("k", ""), "v");
    EXPECT_EQ(nested->stringOr("missing", "dflt"), "dflt");
    EXPECT_EQ(nested->numberOr("k", 7.0), 7.0);  // wrong type
    EXPECT_EQ(doc.value.numberOr("b", 0.0), 1.0);
}

TEST(JsonParse, StringEscapes)
{
    auto doc = mu::jsonParse(
        "\"a\\\"b\\\\c\\/d\\n\\t\\u0041\\u00e9\"");
    ASSERT_TRUE(doc.ok) << doc.error;
    EXPECT_EQ(doc.value.str(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput)
{
    EXPECT_FALSE(mu::jsonParse("").ok);
    EXPECT_FALSE(mu::jsonParse("{\"a\": 1,}").ok);
    EXPECT_FALSE(mu::jsonParse("[1, 2").ok);
    EXPECT_FALSE(mu::jsonParse("{\"a\" 1}").ok);
    EXPECT_FALSE(mu::jsonParse("nul").ok);
    EXPECT_FALSE(mu::jsonParse("tru").ok);
    EXPECT_FALSE(mu::jsonParse("[,]").ok);
    EXPECT_FALSE(mu::jsonParse("1 2").ok);  // trailing garbage
    auto bad = mu::jsonParse("[1, }");
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    // RFC 8259 numbers have no leading zeros; a lone zero is fine.
    for (const char *text : {"01", "-01", "{\"a\":00}", "[007]",
                             "00.5"}) {
        auto doc = mu::jsonParse(text);
        EXPECT_FALSE(doc.ok) << text;
        EXPECT_NE(doc.error.find("bad number"), std::string::npos)
            << text;
    }
    for (const char *text : {"0", "-0", "0.5", "0e3", "-0.0", "10"}) {
        auto doc = mu::jsonParse(text);
        EXPECT_TRUE(doc.ok) << text << ": " << doc.error;
    }
}

TEST(JsonParse, SubnormalNumbersParseAndOverflowFails)
{
    // Underflow is not an error: a subnormal literal parses to the
    // nearest double.
    auto tiny = mu::jsonParse("1e-310");
    ASSERT_TRUE(tiny.ok) << tiny.error;
    EXPECT_GT(tiny.value.number(), 0.0);
    EXPECT_LT(tiny.value.number(), 1e-300);
    auto deadline = mu::jsonParse("{\"deadlineMs\":1e-320}");
    ASSERT_TRUE(deadline.ok) << deadline.error;
    EXPECT_GT(deadline.value.numberOr("deadlineMs", 0.0), 0.0);
    // Overflow has no finite value, so it is rejected.
    for (const char *text : {"1e400", "{\"a\":-1e400}"}) {
        auto doc = mu::jsonParse(text);
        EXPECT_FALSE(doc.ok) << text;
        EXPECT_NE(doc.error.find("out of range"), std::string::npos)
            << doc.error;
    }
}

// ---------------------------------------------------------------
// InlineFunction: the pooled event queue's callable representation
// ---------------------------------------------------------------

namespace {

using TestFn = mpress::util::InlineFunction<int(), 64>;

} // namespace

TEST(InlineFunction, InlineCaptureAvoidsTheHeap)
{
    std::uint64_t before = mpress::util::callableHeapAllocs();
    std::uint64_t a = 3, b = 4;
    TestFn fn([a, b] { return static_cast<int>(a + b); });
    EXPECT_EQ(fn(), 7);
    EXPECT_EQ(mpress::util::callableHeapAllocs(), before);
}

TEST(InlineFunction, OversizedCaptureSpillsToHeapOnce)
{
    std::uint64_t before = mpress::util::callableHeapAllocs();
    std::uint64_t big[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    static_assert(sizeof(big) > 64);
    TestFn fn([big] {
        int sum = 0;
        for (std::uint64_t v : big)
            sum += static_cast<int>(v);
        return sum;
    });
    EXPECT_EQ(fn(), 78);
    EXPECT_EQ(mpress::util::callableHeapAllocs(), before + 1);
}

TEST(InlineFunction, MoveTransfersAndEmptiesSource)
{
    int x = 5;
    TestFn src([x] { return x * 2; });
    TestFn dst(std::move(src));
    EXPECT_FALSE(static_cast<bool>(src));
    ASSERT_TRUE(static_cast<bool>(dst));
    EXPECT_EQ(dst(), 10);

    TestFn assigned;
    assigned = std::move(dst);
    EXPECT_FALSE(static_cast<bool>(dst));
    EXPECT_EQ(assigned(), 10);
}

TEST(InlineFunction, HoldsMoveOnlyCallables)
{
    auto p = std::make_unique<int>(9);
    TestFn fn([p = std::move(p)] { return *p; });
    TestFn moved(std::move(fn));
    EXPECT_EQ(moved(), 9);
}

TEST(InlineFunction, EmptyAndNullptrStates)
{
    TestFn fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    fn = [] { return 1; };
    EXPECT_TRUE(static_cast<bool>(fn));
    fn = nullptr;
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, EmplaceConstructsInPlace)
{
    std::uint64_t before = mpress::util::callableHeapAllocs();
    TestFn fn;
    int y = 21;
    fn.emplace([y] { return y + y; });
    EXPECT_EQ(fn(), 42);
    // Emplacing the self type degrades to move-assignment instead of
    // boxing the whole InlineFunction as a nested callable.
    TestFn other;
    other.emplace(std::move(fn));
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(other(), 42);
    EXPECT_EQ(mpress::util::callableHeapAllocs(), before);
}

TEST(InlineFunction, EventFnNestsInsideCompletionCapacity)
{
    // The stream completion buffer must be able to carry a whole
    // EventFn plus a tick of bookkeeping; this mirrors the
    // static_assert in stream.hh and keeps the contract visible.
    static_assert(sizeof(mpress::sim::EventFn) <=
                  mpress::sim::kCompletionCapacity);
    SUCCEED();
}

TEST(Random, Fnv1a64KnownVectors)
{
    // Published FNV-1a test vectors: offset basis for the empty
    // string, then two classics from the reference implementation.
    EXPECT_EQ(mpress::util::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(mpress::util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(mpress::util::fnv1a64("foobar"),
              0x85944171f73967e8ULL);
}

// ---------------------------------------------------------------
// Checked numeric parsing: the CLI's defense against std::stoi
// crashes on malformed flag values
// ---------------------------------------------------------------

TEST(Strings, ParseIntAcceptsWholeIntegers)
{
    int v = -1;
    EXPECT_TRUE(mu::parseInt("0", &v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(mu::parseInt("42", &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(mu::parseInt("-7", &v));
    EXPECT_EQ(v, -7);
    EXPECT_TRUE(mu::parseInt("+13", &v));
    EXPECT_EQ(v, 13);
    EXPECT_TRUE(mu::parseInt("2147483647", &v));
    EXPECT_EQ(v, std::numeric_limits<int>::max());
    EXPECT_TRUE(mu::parseInt("-2147483648", &v));
    EXPECT_EQ(v, std::numeric_limits<int>::min());
}

TEST(Strings, ParseIntRejectsJunkAndLeavesOutUntouched)
{
    int v = 123;
    // Each of these used to reach std::stoi and throw.
    EXPECT_FALSE(mu::parseInt("", &v));
    EXPECT_FALSE(mu::parseInt("banana", &v));
    EXPECT_FALSE(mu::parseInt("2x", &v));
    EXPECT_FALSE(mu::parseInt(" 2", &v));
    EXPECT_FALSE(mu::parseInt("2 ", &v));
    EXPECT_FALSE(mu::parseInt("1.5", &v));
    EXPECT_FALSE(mu::parseInt("0x10", &v));
    EXPECT_FALSE(mu::parseInt("--threads", &v));
    EXPECT_FALSE(mu::parseInt("99999999999999999999", &v));
    EXPECT_FALSE(mu::parseInt("2147483648", &v));   // max + 1
    EXPECT_FALSE(mu::parseInt("-2147483649", &v));  // min - 1
    EXPECT_EQ(v, 123) << "failed parse must not clobber *out";
}

TEST(Strings, ParseDoubleAcceptsUsualForms)
{
    double v = -1.0;
    EXPECT_TRUE(mu::parseDouble("0", &v));
    EXPECT_EQ(v, 0.0);
    EXPECT_TRUE(mu::parseDouble("2.5", &v));
    EXPECT_EQ(v, 2.5);
    EXPECT_TRUE(mu::parseDouble("-1e3", &v));
    EXPECT_EQ(v, -1000.0);
    EXPECT_TRUE(mu::parseDouble("1.25e-2", &v));
    EXPECT_EQ(v, 0.0125);
}

TEST(Strings, ParseDoubleRejectsJunkAndNonFinite)
{
    double v = 123.0;
    EXPECT_FALSE(mu::parseDouble("", &v));
    EXPECT_FALSE(mu::parseDouble("soon", &v));
    EXPECT_FALSE(mu::parseDouble("5ms", &v));
    EXPECT_FALSE(mu::parseDouble("1e999", &v));  // overflows to inf
    EXPECT_FALSE(mu::parseDouble("nan", &v));
    EXPECT_FALSE(mu::parseDouble("inf", &v));
    EXPECT_FALSE(mu::parseDouble(" 1", &v));
    EXPECT_EQ(v, 123.0) << "failed parse must not clobber *out";
}

// ---------------------------------------------------------------
// JSON resource limits: typed rejection for hostile documents
// ---------------------------------------------------------------

namespace {

/** @return a document nested @p depth arrays deep: [[[...]]] */
std::string
nestedArrays(int depth)
{
    std::string text;
    text.reserve(static_cast<std::size_t>(depth) * 2);
    for (int i = 0; i < depth; ++i)
        text += '[';
    for (int i = 0; i < depth; ++i)
        text += ']';
    return text;
}

} // namespace

TEST(JsonLimits, DefaultDepthCapStopsNestingBombs)
{
    // 256 levels is fine; 257 is a typed DepthExceeded, not a stack
    // overflow (the recursive-descent parser consumes one stack
    // frame per level, so unbounded nesting would crash).
    EXPECT_TRUE(mu::jsonParse(nestedArrays(256)).ok);
    auto deep = mu::jsonParse(nestedArrays(257));
    EXPECT_FALSE(deep.ok);
    EXPECT_EQ(deep.errorKind, mu::JsonErrorKind::DepthExceeded);
    EXPECT_FALSE(deep.error.empty());
    // Degenerate-but-wide input is fine: depth 1, any length.
    std::string wide = "[0";
    for (int i = 0; i < 10000; ++i)
        wide += ",0";
    wide += "]";
    EXPECT_TRUE(mu::jsonParse(wide).ok);
}

TEST(JsonLimits, CustomDepthCap)
{
    // Every value counts one level, scalars included: "[[1]]" is
    // depth 3 (array, array, number).
    mu::JsonLimits limits;
    limits.maxDepth = 3;
    EXPECT_TRUE(mu::jsonParse("[[1]]", limits).ok);
    EXPECT_TRUE(mu::jsonParse("[[[]]]", limits).ok);
    auto doc = mu::jsonParse("[[[1]]]", limits);
    EXPECT_FALSE(doc.ok);
    EXPECT_EQ(doc.errorKind, mu::JsonErrorKind::DepthExceeded);
    // Objects count levels the same way arrays do.
    auto obj = mu::jsonParse("{\"a\":{\"b\":{\"c\":1}}}", limits);
    EXPECT_FALSE(obj.ok);
    EXPECT_EQ(obj.errorKind, mu::JsonErrorKind::DepthExceeded);
}

TEST(JsonLimits, ByteCapRejectsOversizedInputBeforeParsing)
{
    mu::JsonLimits limits;
    limits.maxBytes = 8;
    EXPECT_TRUE(mu::jsonParse("[1,2]", limits).ok);
    auto doc = mu::jsonParse("[1,2,3,4,5]", limits);
    EXPECT_FALSE(doc.ok);
    EXPECT_EQ(doc.errorKind, mu::JsonErrorKind::TooLarge);
    // maxBytes = 0 means unlimited.
    mu::JsonLimits unlimited;
    EXPECT_EQ(unlimited.maxBytes, 0u);
    EXPECT_TRUE(mu::jsonParse("[1,2,3,4,5]", unlimited).ok);
}

TEST(JsonLimits, ErrorKindNames)
{
    EXPECT_STREQ(mu::jsonErrorKindName(mu::JsonErrorKind::None),
                 "none");
    EXPECT_STREQ(mu::jsonErrorKindName(mu::JsonErrorKind::Syntax),
                 "syntax");
    EXPECT_STREQ(
        mu::jsonErrorKindName(mu::JsonErrorKind::DepthExceeded),
        "depth-exceeded");
    EXPECT_STREQ(mu::jsonErrorKindName(mu::JsonErrorKind::TooLarge),
                 "too-large");
    // Syntax errors report the Syntax kind (not None).
    auto doc = mu::jsonParse("{oops}");
    EXPECT_FALSE(doc.ok);
    EXPECT_EQ(doc.errorKind, mu::JsonErrorKind::Syntax);
}

// ---------------------------------------------------------------
// jsonRender: the serializer the serve layer uses to hand request
// subtrees to text-based parsers
// ---------------------------------------------------------------

TEST(JsonRender, RoundTripsThroughTheParser)
{
    const char *cases[] = {
        "null", "true", "false", "42", "-3", "2.5", "\"s\"",
        "[1,2,[3,null]]",
        "{\"b\":1,\"a\":{\"k\":\"v\"},\"c\":[true,false]}",
    };
    for (const char *text : cases) {
        auto doc = mu::jsonParse(text);
        ASSERT_TRUE(doc.ok) << text;
        std::string rendered = mu::jsonRender(doc.value);
        // Compact form: round-trips exactly, including member order.
        EXPECT_EQ(rendered, text);
        auto again = mu::jsonParse(rendered);
        ASSERT_TRUE(again.ok) << rendered;
        EXPECT_EQ(mu::jsonRender(again.value), rendered);
    }
}

TEST(JsonRender, EscapesAndIntegerNumbers)
{
    auto doc = mu::jsonParse(
        "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":3,\"f\":0.5}");
    ASSERT_TRUE(doc.ok) << doc.error;
    std::string rendered = mu::jsonRender(doc.value);
    // Integral doubles render without a spurious ".0"; strings are
    // re-escaped via jsonQuote.
    EXPECT_EQ(rendered,
              "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":3,\"f\":0.5}");
    EXPECT_EQ(mu::jsonQuote("tab\there"), "\"tab\\there\"");
}

TEST(Logging, WarnAlwaysWritesOneTaggedLine)
{
    // There is no level to set: a warning always reaches stderr as
    // one tagged line, and the run goes on.
    EXPECT_EXIT(
        {
            mu::warn("%d stages over %s", 8, "dgx1");
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "^warn: 8 stages over dgx1\n$");
}

TEST(Logging, FatalExitsOneAndPanicAborts)
{
    EXPECT_EXIT(mu::fatal("unknown model '%s'", "bert-9b"),
                ::testing::ExitedWithCode(1),
                "^fatal: unknown model 'bert-9b'\n$");
    EXPECT_EXIT(mu::panic("lane %d out of range", 13),
                ::testing::KilledBySignal(SIGABRT),
                "^panic: lane 13 out of range\n$");
}
