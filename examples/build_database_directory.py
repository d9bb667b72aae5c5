"""Build a hidden-web database directory, end to end.

This is the paper's motivating application (Sections 1 and 5): hidden-web
directories such as BrightPlanet's cover only a sliver of the deep web
because they are maintained by hand.  CAFC automates the pipeline:

1. a crawler walks the web and finds pages containing forms;
2. the generic form classifier drops non-searchable forms (logins,
   newsletter signups);
3. backlinks for each surviving form page are harvested from a search
   engine's ``link:`` API, together with the site root's backlinks;
4. CAFC-CH clusters the form pages by database domain;
5. clusters become directory categories, labelled by their centroid
   terms — and new sources found later are classified into them.

Run:  python examples/build_database_directory.py
"""

from repro.core import CAFCConfig, CAFCPipeline, RawFormPage
from repro.webgen import GeneratorConfig, generate_benchmark
from repro.webgraph import Crawler, harvest_backlinks, root_url_of

CONFIG = GeneratorConfig(
    pages_per_domain={
        "airfare": 12, "auto": 12, "book": 12, "hotel": 12,
        "job": 12, "movie": 12, "music": 12, "rental": 12,
    },
    single_attribute_per_domain=2,
    small_hubs_per_domain=8,
    medium_hubs_per_domain=3,
    n_directories=20,
    n_travel_portals=2,
    seed=23,
)


def main() -> None:
    web = generate_benchmark(config=CONFIG)

    # ---- 1+2. Crawl and filter --------------------------------------
    roots = [site.root_url for site in web.sites]
    crawl = Crawler(web.graph).crawl(roots)
    print(f"crawled {crawl.n_visited} pages")
    print(f"searchable form pages found: {len(crawl.form_pages)}")
    print(f"non-searchable forms rejected: {len(crawl.rejected_form_pages)}\n")

    # ---- 3. Harvest backlinks ---------------------------------------
    engine = web.search_engine()
    raw_pages = []
    for page in crawl.form_pages:
        backlinks = harvest_backlinks(engine, page.url, root_url_of(page.url))
        raw_pages.append(
            RawFormPage(url=page.url, html=page.html, backlinks=backlinks)
        )
    print(f"harvested backlinks with {engine.query_count} link: queries\n")

    # ---- 4. Cluster ---------------------------------------------------
    pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
    directory = pipeline.organize(raw_pages)

    # ---- 5. Print the directory --------------------------------------
    print("=" * 60)
    print("HIDDEN-WEB DATABASE DIRECTORY")
    print("=" * 60)
    for index, category in enumerate(directory.clusters):
        heading = " / ".join(category.top_terms[:3])
        print(f"\n[{index}] {heading}  ({category.size} databases)")
        for url in category.urls[:4]:
            print(f"    {url}")
        if category.size > 4:
            print(f"    ... and {category.size - 4} more")

    # ---- Classify a newly discovered source --------------------------
    fresh_web = generate_benchmark(config=GeneratorConfig(
        pages_per_domain={
            "airfare": 7, "auto": 7, "book": 7, "hotel": 7,
            "job": 7, "movie": 7, "music": 7, "rental": 7,
        },
        single_attribute_per_domain=1,
        small_hubs_per_domain=4,
        medium_hubs_per_domain=2,
        n_directories=8,
        n_travel_portals=1,
        seed=77,
    ))
    print("\n" + "=" * 60)
    print("CLASSIFYING NEWLY DISCOVERED SOURCES")
    print("=" * 60)
    for raw in fresh_web.raw_pages()[:5]:
        category_index = pipeline.classify(raw, directory)
        category = directory.clusters[category_index]
        print(f"{raw.url}")
        print(f"  true domain: {raw.label}; "
              f"filed under [{category_index}] {' / '.join(category.top_terms[:3])}")


if __name__ == "__main__":
    main()
