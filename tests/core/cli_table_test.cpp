#include <gtest/gtest.h>

#include <string>

#include "../test_util.hpp"
#include "core/cli.hpp"
#include "core/error.hpp"
#include "core/table.hpp"

namespace tdfm {
namespace {

using test::config_error_of;

// ---------------------------------------------------------------- CliParser

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args.begin(), args.end()};
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser cli;
  cli.add_flag("epochs", "10", "epochs");
  const auto args = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("epochs"), 10);
}

TEST(Cli, ParsesSpaceSeparatedValue) {
  CliParser cli;
  cli.add_flag("epochs", "10", "epochs");
  const auto args = argv_of({"prog", "--epochs", "25"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("epochs"), 25);
}

TEST(Cli, ParsesEqualsForm) {
  CliParser cli;
  cli.add_flag("scale", "1.0", "scale");
  const auto args = argv_of({"prog", "--scale=0.5"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.5);
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli;
  cli.add_flag("epochs", "10", "epochs");
  const auto args = argv_of({"prog", "--nope", "1"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(args.size()), args.data()),
               ConfigError);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli;
  cli.add_flag("epochs", "10", "epochs");
  const auto args = argv_of({"prog", "--epochs"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(args.size()), args.data()),
               ConfigError);
}

TEST(Cli, PositionalArgumentThrows) {
  CliParser cli;
  const auto args = argv_of({"prog", "stray"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(args.size()), args.data()),
               ConfigError);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli;
  cli.add_flag("epochs", "10", "epochs");
  const auto args = argv_of({"prog", "--help"});
  EXPECT_FALSE(cli.parse(static_cast<int>(args.size()), args.data()));
}

TEST(Cli, BadIntegerThrows) {
  CliParser cli;
  cli.add_flag("epochs", "ten", "epochs");
  EXPECT_THROW((void)cli.get_int("epochs"), ConfigError);
}

TEST(Cli, BadDoubleThrows) {
  CliParser cli;
  cli.add_flag("scale", "0.5x", "scale");
  EXPECT_THROW((void)cli.get_double("scale"), ConfigError);
}

TEST(Cli, NonFiniteDoubleThrowsNamingTheFlag) {
  for (const char* value : {"nan", "NAN", "-nan", "inf", "-inf", "infinity", "1e400"}) {
    CliParser cli;
    cli.add_flag("scale", value, "scale");
    EXPECT_NE(config_error_of([&] { (void)cli.get_double("scale"); }).find("--scale"),
              std::string::npos)
        << value;
  }
}

TEST(Cli, SizeIsANonNegativeCount) {
  CliParser cli;
  cli.add_flag("zero", "0", "");
  cli.add_flag("epochs", "12", "");
  cli.add_flag("negative", "-1", "");
  cli.add_flag("word", "ten", "");
  EXPECT_EQ(cli.get_size("zero"), 0U);
  EXPECT_EQ(cli.get_size("epochs"), 12U);
  EXPECT_NE(config_error_of([&] { (void)cli.get_size("negative"); }).find("--negative"),
            std::string::npos);
  EXPECT_NE(config_error_of([&] { (void)cli.get_size("word"); }).find("--word"),
            std::string::npos);
}

TEST(Cli, BoolForms) {
  CliParser cli;
  cli.add_flag("a", "true", "");
  cli.add_flag("b", "0", "");
  cli.add_flag("c", "maybe", "");
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_THROW((void)cli.get_bool("c"), ConfigError);
}

TEST(Cli, U64RoundTrip) {
  CliParser cli;
  cli.add_flag("seed", "18446744073709551615", "seed");
  EXPECT_EQ(cli.get_u64("seed"), ~0ULL);
}

TEST(Cli, UsageListsFlags) {
  CliParser cli;
  cli.add_flag("epochs", "10", "number of epochs");
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--epochs"), std::string::npos);
  EXPECT_NE(usage.find("number of epochs"), std::string::npos);
}

// ------------------------------------------------------------ loadgen flags

TEST(Cli, LoadgenDefaultsApply) {
  CliParser cli;
  add_loadgen_flags(cli, /*default_duration=*/3.0, /*default_rate=*/0.0,
                    /*default_warmup=*/0.5);
  const auto args = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  const LoadgenOptions opts = parse_loadgen_flags(cli);
  EXPECT_DOUBLE_EQ(opts.duration_s, 3.0);
  EXPECT_DOUBLE_EQ(opts.rate_rps, 0.0);  // 0 = open throttle (saturate)
  EXPECT_DOUBLE_EQ(opts.warmup_s, 0.5);
}

TEST(Cli, LoadgenFlagsParse) {
  CliParser cli;
  add_loadgen_flags(cli, 3.0, 0.0, 0.5);
  const auto args =
      argv_of({"prog", "--duration", "10", "--rate=250.5", "--warmup", "0"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  const LoadgenOptions opts = parse_loadgen_flags(cli);
  EXPECT_DOUBLE_EQ(opts.duration_s, 10.0);
  EXPECT_DOUBLE_EQ(opts.rate_rps, 250.5);
  EXPECT_DOUBLE_EQ(opts.warmup_s, 0.0);
}

TEST(Cli, LoadgenNonNumericValueThrows) {
  CliParser cli;
  add_loadgen_flags(cli, 3.0, 0.0, 0.5);
  const auto args = argv_of({"prog", "--duration", "fast"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_THROW((void)parse_loadgen_flags(cli), ConfigError);
}

TEST(Cli, LoadgenValidationRejectsBadRanges) {
  const auto parse_with = [](std::initializer_list<const char*> extra) {
    CliParser cli;
    add_loadgen_flags(cli, 3.0, 0.0, 0.5);
    std::vector<const char*> args{"prog"};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
    return parse_loadgen_flags(cli);
  };
  EXPECT_THROW((void)parse_with({"--duration", "0"}), ConfigError);
  EXPECT_THROW((void)parse_with({"--duration", "-1"}), ConfigError);
  EXPECT_THROW((void)parse_with({"--rate", "-0.1"}), ConfigError);
  EXPECT_THROW((void)parse_with({"--warmup", "-2"}), ConfigError);
  EXPECT_THROW((void)parse_with({"--duration", "nan"}), ConfigError);
  EXPECT_THROW((void)parse_with({"--duration", "inf"}), ConfigError);
  EXPECT_THROW((void)parse_with({"--rate", "nan"}), ConfigError);
  EXPECT_NO_THROW((void)parse_with({"--warmup", "0", "--rate", "0"}));
}

// ---------------------------------------------------------------- AsciiTable

TEST(Table, RendersAllCells) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string out = t.render();
  for (const char* needle : {"name", "value", "alpha", "beta", "22"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
  }
}

TEST(Table, WrongArityThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

TEST(Table, MarkdownHasSeparatorRow) {
  AsciiTable t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string md = t.render_markdown();
  EXPECT_NE(md.find("|---"), std::string::npos);
}

TEST(Table, ColumnsAlignAcrossRows) {
  AsciiTable t({"x", "y"});
  t.add_row({"short", "1"});
  t.add_row({"much-longer-cell", "2"});
  const std::string out = t.render();
  // Every rendered line must have equal length (fixed-width table).
  std::size_t expected = out.find('\n');
  std::size_t start = 0;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    if (end == std::string::npos) break;
    EXPECT_EQ(end - start, expected);
    start = end + 1;
  }
}

TEST(Formatting, Percent) {
  EXPECT_EQ(percent(0.905, 1), "90.5%");
  EXPECT_EQ(percent(0.0, 0), "0%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(Formatting, Fixed) {
  EXPECT_EQ(fixed(1.2345, 2), "1.23");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Formatting, PercentWithCi) {
  EXPECT_EQ(percent_with_ci(0.5, 0.012, 1), "50.0% ± 1.2%");
}

}  // namespace
}  // namespace tdfm
