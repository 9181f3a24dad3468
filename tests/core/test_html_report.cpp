#include "core/html_report.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/report.hpp"

namespace anacin::core {
namespace {

TEST(HtmlEscape, EscapesMarkupCharacters) {
  EXPECT_EQ(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(html_escape("plain"), "plain");
  EXPECT_EQ(html_escape(""), "");
}

TEST(HtmlReport, SkeletonAndTitle) {
  const HtmlReport report("My <Report>");
  const std::string html = report.render();
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("<title>My &lt;Report&gt;</title>"),
            std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

TEST(HtmlReport, SectionsRenderInOrder) {
  HtmlReport report("r");
  report.add_heading("First");
  report.add_paragraph("body text with <angle>");
  report.add_heading("Second");
  const std::string html = report.render();
  const auto first = html.find("<h2>First</h2>");
  const auto paragraph = html.find("<p>body text with &lt;angle&gt;</p>");
  const auto second = html.find("<h2>Second</h2>");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(paragraph, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, paragraph);
  EXPECT_LT(paragraph, second);
}

TEST(HtmlReport, PreformattedPreservesAsciiArt) {
  HtmlReport report("r");
  report.add_preformatted("rank 0  I-S->R\n  <raw>");
  const std::string html = report.render();
  EXPECT_NE(html.find("<pre>rank 0  I-S-&gt;R\n  &lt;raw&gt;</pre>"),
            std::string::npos);
}

TEST(HtmlReport, TableRows) {
  HtmlReport report("r");
  report.add_table({{"pattern", "amg2013"}, {"runs", "20"}});
  const std::string html = report.render();
  EXPECT_NE(html.find("<th>pattern</th><td>amg2013</td>"),
            std::string::npos);
  EXPECT_NE(html.find("<th>runs</th><td>20</td>"), std::string::npos);
}

TEST(HtmlReport, InlinesSvgFigures) {
  HtmlReport report("r");
  viz::SvgDocument svg(50, 40);
  svg.circle(10, 10, 5, {});
  report.add_figure(svg, "a & b");
  const std::string html = report.render();
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("<figcaption>a &amp; b</figcaption>"),
            std::string::npos);
}

TEST(HtmlReport, SaveWritesFile) {
  HtmlReport report("saved");
  report.add_paragraph("x");
  report.save("test_output/html_report/r.html");
  const std::string text = read_text_file("test_output/html_report/r.html");
  EXPECT_NE(text.find("saved"), std::string::npos);
  std::filesystem::remove_all("test_output/html_report");
}

}  // namespace
}  // namespace anacin::core
