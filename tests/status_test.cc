#include "common/status.h"

#include <gtest/gtest.h>

namespace privbasis {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructors) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::BudgetExhausted("x").code(),
            StatusCode::kBudgetExhausted);
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
  EXPECT_FALSE(s.ok());
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kBudgetExhausted),
               "BudgetExhausted");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

Status FailingFn() { return Status(StatusCode::kNotFound, "boom"); }

Status PropagatesWithMacro() {
  PRIVBASIS_RETURN_NOT_OK(FailingFn());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacro) {
  EXPECT_EQ(PropagatesWithMacro().code(), StatusCode::kNotFound);
}

Result<int> ProducesInt(bool fail) {
  if (fail) return Status::Internal("no int");
  return 5;
}

Result<int> UsesAssignMacro(bool fail) {
  PRIVBASIS_ASSIGN_OR_RETURN(int v, ProducesInt(fail));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = UsesAssignMacro(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 6);
  auto err = UsesAssignMacro(true);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace privbasis
