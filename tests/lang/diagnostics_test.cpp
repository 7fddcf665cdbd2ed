// Golden-file tests: every diagnostic class renders EXACTLY the committed
// message, location and caret.  Each case is tests/lang/cases/NAME.pram;
// the expected stderr of `apexcli compile` is NAME.expected.  Regenerate
// a golden (after an intentional change) with:
//
//   cd tests/lang && apexcli compile cases/NAME.pram 2> cases/NAME.expected
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "lang/compile.h"

namespace apex::lang {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compile cases/NAME.pram with the repo-relative name apexcli would use,
/// so the rendered diagnostics are byte-equal to the committed golden.
void check_case(const std::string& name) {
  const std::string dir = std::string(APEX_SOURCE_DIR) + "/tests/lang/";
  const std::string rel = "cases/" + name + ".pram";
  SourceFile src{rel, slurp(dir + rel)};
  const CompileResult r = compile_source(src);
  ASSERT_FALSE(r.ok()) << name << " unexpectedly compiled";
  EXPECT_EQ(render_diagnostics(src, r.diagnostics),
            slurp(dir + "cases/" + name + ".expected"))
      << "golden mismatch for " << name;
}

TEST(DiagnosticsGolden, ErewWriteWrite) { check_case("erew_write"); }
TEST(DiagnosticsGolden, ErewReadRead) { check_case("erew_read"); }
TEST(DiagnosticsGolden, GatherWindowOverlap) { check_case("window_overlap"); }
TEST(DiagnosticsGolden, SameStepSegmentWrite) { check_case("segment_write"); }
TEST(DiagnosticsGolden, UndefinedVariable) { check_case("undefined_var"); }
TEST(DiagnosticsGolden, VariableIdOverflow) { check_case("id_overflow"); }

// Size limits: each case would abort with std::bad_alloc if the analysis
// allocated before checking.
TEST(DiagnosticsGolden, TooManyVariables) { check_case("size_vars"); }
TEST(DiagnosticsGolden, ArrayPastVariableLimit) { check_case("size_array"); }
TEST(DiagnosticsGolden, TooManyInstructionSlots) { check_case("size_procs"); }

}  // namespace
}  // namespace apex::lang
