#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "support/error.hpp"

namespace anacin::core {
namespace {

TEST(TextFiles, WriteAndReadRoundTrip) {
  const std::string path = "test_output/text_files/inner/file.txt";
  write_text_file(path, "hello\nworld\n");
  EXPECT_EQ(read_text_file(path), "hello\nworld\n");
  std::filesystem::remove_all("test_output/text_files");
}

TEST(TextFiles, ReadMissingThrows) {
  EXPECT_THROW(read_text_file("definitely/not/here.txt"), Error);
}

TEST(Csv, RendersHeaderAndRows) {
  CsvWriter csv({"pattern", "ranks", "median"});
  csv.add_row({"amg2013", "32", "12.5"});
  csv.add_row({"message_race", "16", "3.25"});
  EXPECT_EQ(csv.render(),
            "pattern,ranks,median\n"
            "amg2013,32,12.5\n"
            "message_race,16,3.25\n");
}

TEST(Csv, EscapesSpecialFields) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"x,y", "say \"hi\""});
  csv.add_row({"line\nbreak", "plain"});
  const std::string out = csv.render();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(out.find("\"line\nbreak\""), std::string::npos);
}

TEST(Csv, RowWidthEnforced) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), Error);
  EXPECT_THROW(CsvWriter({}), Error);
}

TEST(Csv, SaveWritesFile) {
  CsvWriter csv({"x"});
  csv.add_row({"1"});
  csv.save("test_output/csv/data.csv");
  EXPECT_EQ(read_text_file("test_output/csv/data.csv"), "x\n1\n");
  std::filesystem::remove_all("test_output/csv");
}

TEST(JsonFile, WritesPrettyJson) {
  json::Value doc = json::Value::object();
  doc.set("k", 1);
  write_json_file("test_output/json_file/doc.json", doc);
  const std::string text = read_text_file("test_output/json_file/doc.json");
  EXPECT_NE(text.find("\"k\": 1"), std::string::npos);
  EXPECT_EQ(json::parse(text), doc);
  std::filesystem::remove_all("test_output/json_file");
}

TEST(ResultsDir, HonorsEnvironmentOverride) {
  ::setenv("ANACIN_RESULTS_DIR", "custom_results", 1);
  EXPECT_EQ(results_dir(), "custom_results");
  ::unsetenv("ANACIN_RESULTS_DIR");
  EXPECT_EQ(results_dir(), "results");
}

}  // namespace
}  // namespace anacin::core
