#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace cape {
namespace {

// ---------------------------------------------------------------- lexer ---

TEST(LexerTest, KeywordsIdentifiersAndCaseFolding) {
  auto tokens = Tokenize("SELECT Author, COUNT(*) FROM Pub");
  ASSERT_TRUE(tokens.ok());
  const auto& t = *tokens;
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].type, TokenType::kIdentifier);
  EXPECT_EQ(t[1].text, "author");  // bare identifiers fold to lowercase
  EXPECT_TRUE(t[2].IsSymbol(","));
  EXPECT_TRUE(t[3].IsKeyword("COUNT"));
  EXPECT_TRUE(t[4].IsSymbol("("));
  EXPECT_TRUE(t[5].IsSymbol("*"));
  EXPECT_TRUE(t[6].IsSymbol(")"));
  EXPECT_TRUE(t[7].IsKeyword("FROM"));
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, QuotedIdentifiersKeepCase) {
  auto tokens = Tokenize("\"Author Name\" \"with\"\"quote\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "Author Name");
  EXPECT_EQ((*tokens)[1].text, "with\"quote");
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = Tokenize("'SIGKDD' 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "SIGKDD");
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(LexerTest, Numbers) {
  auto tokens = Tokenize("42 -7 3.5 1e3 -2.5E-1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].int_value, -7);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[3].double_value, 1000.0);
  EXPECT_DOUBLE_EQ((*tokens)[4].double_value, -0.25);
}

TEST(LexerTest, Operators) {
  auto tokens = Tokenize("= != <> <= >= < >");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "=");
  EXPECT_EQ((*tokens)[1].text, "!=");
  EXPECT_EQ((*tokens)[2].text, "!=");  // <> normalizes to !=
  EXPECT_EQ((*tokens)[3].text, "<=");
  EXPECT_EQ((*tokens)[4].text, ">=");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
}

// --------------------------------------------------------------- parser ---

TEST(ParserTest, FullSelect) {
  auto query = ParseSelect(
      "SELECT author, venue, count(*) AS pubcnt FROM pub "
      "WHERE year >= 2005 AND venue = 'SIGKDD' "
      "GROUP BY author, venue ORDER BY pubcnt DESC LIMIT 10;");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->items.size(), 3u);
  EXPECT_FALSE(query->items[0].is_aggregate);
  EXPECT_TRUE(query->items[2].is_aggregate);
  EXPECT_EQ(query->items[2].alias, "pubcnt");
  EXPECT_EQ(query->items[2].DefaultName(), "pubcnt");
  EXPECT_EQ(query->table, "pub");
  ASSERT_EQ(query->where.size(), 2u);
  EXPECT_EQ(query->where[0].op, WherePredicate::Op::kGe);
  EXPECT_EQ(query->where[0].literal, Value::Int64(2005));
  EXPECT_EQ(query->where[1].literal, Value::String("SIGKDD"));
  EXPECT_EQ(query->group_by, (std::vector<std::string>{"author", "venue"}));
  EXPECT_EQ(*query->order_by, "pubcnt");
  EXPECT_FALSE(query->order_ascending);
  EXPECT_EQ(*query->limit, 10);
}

TEST(ParserTest, MinimalSelect) {
  auto query = ParseSelect("select * from t");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->items.size(), 1u);
  EXPECT_EQ(query->items[0].column, "*");
  EXPECT_TRUE(query->where.empty());
  EXPECT_TRUE(query->group_by.empty());
}

TEST(ParserTest, DefaultAggregateNames) {
  auto query = ParseSelect("SELECT count(*), sum(score) FROM t");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->items[0].DefaultName(), "count_star");
  EXPECT_EQ(query->items[1].DefaultName(), "sum_score");
}

TEST(ParserTest, SelectErrors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT count(a) FROM t").ok());   // only count(*)
  EXPECT_FALSE(ParseSelect("SELECT sum(*) FROM t").ok());     // sum needs a column
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra").ok());    // trailing input
  EXPECT_FALSE(ParseSelect("EXPLAIN WHY count(*) IS LOW FOR a=1 FROM t").ok());
}

TEST(ParserTest, ExplainWhyCommand) {
  auto command = ParseExplainWhy(
      "EXPLAIN WHY count(*) IS LOW FOR author = 'AX', venue = 'SIGKDD', year = 2007 "
      "FROM pub TOP 5;");
  ASSERT_TRUE(command.ok()) << command.status().ToString();
  EXPECT_EQ(command->agg, AggFunc::kCount);
  EXPECT_EQ(command->agg_column, "*");
  EXPECT_EQ(command->direction, Direction::kLow);
  EXPECT_EQ(command->group_by,
            (std::vector<std::string>{"author", "venue", "year"}));
  EXPECT_EQ(command->group_values[2], Value::Int64(2007));
  EXPECT_EQ(command->table, "pub");
  EXPECT_EQ(*command->top_k, 5);
}

TEST(ParserTest, WhyWithoutExplainKeyword) {
  auto command = ParseExplainWhy("WHY sum(amount) IS HIGH FOR region = 'EU' FROM sales");
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(command->agg, AggFunc::kSum);
  EXPECT_EQ(command->agg_column, "amount");
  EXPECT_EQ(command->direction, Direction::kHigh);
  EXPECT_FALSE(command->top_k.has_value());
}

TEST(ParserTest, ExplainWhyErrors) {
  EXPECT_FALSE(ParseExplainWhy("EXPLAIN WHY count(*) IS SIDEWAYS FOR a=1 FROM t").ok());
  EXPECT_FALSE(ParseExplainWhy("EXPLAIN WHY avg(x) IS LOW FOR a=1 FROM t").ok());
  EXPECT_FALSE(ParseExplainWhy("EXPLAIN WHY count(*) IS LOW FROM t").ok());
  EXPECT_FALSE(ParseExplainWhy("EXPLAIN WHY count(*) IS LOW FOR a=1 FROM t TOP 0").ok());
  // TOP must fit the int the explainer takes: no wrap to 0 or negative.
  EXPECT_FALSE(
      ParseExplainWhy("EXPLAIN WHY count(*) IS LOW FOR a=1 FROM t TOP 2147483648").ok());
  EXPECT_FALSE(
      ParseExplainWhy("EXPLAIN WHY count(*) IS LOW FOR a=1 FROM t TOP 4294967296").ok());
  EXPECT_TRUE(
      ParseExplainWhy("EXPLAIN WHY count(*) IS LOW FOR a=1 FROM t TOP 2147483647").ok());
  EXPECT_FALSE(ParseExplainWhy("SELECT a FROM t").ok());
}

// ------------------------------------------------------------- executor ---

Catalog MakeCatalog() {
  auto table = MakeEmptyTable({Field{"author", DataType::kString, false},
                               Field{"year", DataType::kInt64, false},
                               Field{"venue", DataType::kString, false},
                               Field{"cites", DataType::kInt64, true}});
  auto add = [&](const char* a, int y, const char* v, Value c) {
    EXPECT_TRUE(table
                    ->AppendRow({Value::String(a), Value::Int64(y), Value::String(v),
                                 std::move(c)})
                    .ok());
  };
  add("AX", 2006, "SIGKDD", Value::Int64(10));
  add("AX", 2006, "SIGKDD", Value::Int64(20));
  add("AX", 2007, "SIGKDD", Value::Int64(5));
  add("AX", 2007, "ICDE", Value::Int64(8));
  add("AY", 2006, "ICDE", Value::Null());
  add("AY", 2007, "ICDE", Value::Int64(2));
  Catalog catalog;
  catalog.RegisterOrReplaceTable("pub", table);
  return catalog;
}

TEST(ExecutorTest, GroupedAggregation) {
  Catalog catalog = MakeCatalog();
  auto query = ParseSelect(
      "SELECT author, count(*) AS n, sum(cites) AS c FROM pub GROUP BY author "
      "ORDER BY author");
  ASSERT_TRUE(query.ok());
  auto result = ExecuteSelect(catalog, *query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& t = **result;
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.schema()->field(0).name, "author");
  EXPECT_EQ(t.schema()->field(1).name, "n");
  EXPECT_EQ(t.GetValue(0, 0), Value::String("AX"));
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(4));
  EXPECT_EQ(t.GetValue(0, 2), Value::Int64(43));
  EXPECT_EQ(t.GetValue(1, 1), Value::Int64(2));
  EXPECT_EQ(t.GetValue(1, 2), Value::Int64(2));  // NULL cites ignored
}

TEST(ExecutorTest, WhereAndLimit) {
  Catalog catalog = MakeCatalog();
  auto query = ParseSelect(
      "SELECT venue, count(*) AS n FROM pub WHERE year = 2006 AND cites >= 10 "
      "GROUP BY venue LIMIT 1");
  ASSERT_TRUE(query.ok());
  auto result = ExecuteSelect(catalog, *query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 1);
  EXPECT_EQ((*result)->GetValue(0, 0), Value::String("SIGKDD"));
  EXPECT_EQ((*result)->GetValue(0, 1), Value::Int64(2));
}

TEST(ExecutorTest, GlobalAggregate) {
  Catalog catalog = MakeCatalog();
  auto query = ParseSelect("SELECT count(*), min(cites), max(cites) FROM pub");
  ASSERT_TRUE(query.ok());
  auto result = ExecuteSelect(catalog, *query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 1);
  EXPECT_EQ((*result)->GetValue(0, 0), Value::Int64(6));
  EXPECT_EQ((*result)->GetValue(0, 1), Value::Int64(2));
  EXPECT_EQ((*result)->GetValue(0, 2), Value::Int64(20));
}

TEST(ExecutorTest, PlainProjectionAndStar) {
  Catalog catalog = MakeCatalog();
  auto star = ExecuteSelect(catalog, *ParseSelect("SELECT * FROM pub"));
  ASSERT_TRUE(star.ok());
  EXPECT_EQ((*star)->num_rows(), 6);
  EXPECT_EQ((*star)->num_columns(), 4);

  auto proj = ExecuteSelect(
      catalog, *ParseSelect("SELECT venue AS v, author FROM pub ORDER BY v LIMIT 3"));
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ((*proj)->num_columns(), 2);
  EXPECT_EQ((*proj)->schema()->field(0).name, "v");
  EXPECT_EQ((*proj)->GetValue(0, 0), Value::String("ICDE"));
}

TEST(ExecutorTest, NullComparisonsAreNotTrue) {
  Catalog catalog = MakeCatalog();
  auto lt = ExecuteSelect(catalog, *ParseSelect("SELECT * FROM pub WHERE cites < 100"));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ((*lt)->num_rows(), 5);  // the NULL-cites row is excluded
  auto ne = ExecuteSelect(catalog, *ParseSelect("SELECT * FROM pub WHERE cites != 5"));
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ((*ne)->num_rows(), 4);
}

TEST(ExecutorTest, Errors) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(ExecuteSelect(catalog, *ParseSelect("SELECT * FROM nope"))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ExecuteSelect(catalog, *ParseSelect("SELECT bogus FROM pub"))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ExecuteSelect(catalog,
                            *ParseSelect("SELECT author, count(*) FROM pub GROUP BY year"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ExecuteSelect(catalog, *ParseSelect("SELECT *, count(*) FROM pub GROUP BY year"))
                  .status()
                  .IsInvalidArgument());
}

TEST(ExecutorTest, BuildQuestionFromExplainWhy) {
  Catalog catalog = MakeCatalog();
  auto command = ParseExplainWhy(
      "EXPLAIN WHY count(*) IS LOW FOR author='AX', venue='SIGKDD', year=2007 FROM pub");
  ASSERT_TRUE(command.ok());
  auto question = BuildQuestion(catalog, *command);
  ASSERT_TRUE(question.ok()) << question.status().ToString();
  EXPECT_EQ(question->result_value, 1.0);
  EXPECT_EQ(question->dir, Direction::kLow);

  auto missing = ParseExplainWhy(
      "EXPLAIN WHY count(*) IS LOW FOR author='NOBODY' FROM pub");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(BuildQuestion(catalog, *missing).status().IsNotFound());
}

}  // namespace
}  // namespace cape
